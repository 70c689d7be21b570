(* Serve daemon: protocol totality, warm-cache store, and the lifecycle
   invariants — request isolation under concurrency, structured deadline
   errors, graceful drain, and warm restart from the persisted cache. *)

module Json = Kf_obs.Json
module Protocol = Kf_serve.Protocol
module Cache_store = Kf_serve.Cache_store
module Server = Kf_serve.Server
module Client = Kf_serve.Client
module Objective = Kf_search.Objective
module Snapshot = Kf_search.Snapshot

let check = Alcotest.check

(* --- protocol --- *)

let malformed line =
  match Protocol.parse_request line with
  | _ -> Alcotest.failf "accepted malformed request %S" line
  | exception Protocol.Bad_request _ -> ()

let test_parse_malformed () =
  List.iter malformed
    [
      "";
      "not json";
      "[1,2]";
      "{}";
      {|{"workload": 7}|};
      {|{"workload": "cloverleaf", "program": "k"}|};
      {|{"workload": "cloverleaf", "options": {"generations": -3}}|};
      {|{"workload": "cloverleaf", "options": {"deadline_s": 0}}|};
      {|{"workload": "cloverleaf", "options": {"inject_rate": 1.5}}|};
      {|{"workload": "cloverleaf", "options": {"apply": "yes"}}|};
      {|{"workload": "cloverleaf", "options": 3}|};
      {|{"workload": "cloverleaf", "session": ""}|};
      {|{"workload": "cloverleaf", "session": "s", "options": {"apply": true}}|};
      {|{"workload": "cloverleaf", "session": "s", "options": {"max_wall_s": 1.0}}|};
      {|{"workload": "cloverleaf", "session": "s", "options": {"max_evaluations": 10}}|};
      {|{"workload": "cloverleaf", "options": {"slo_ms": -5}}|};
    ]

let test_parse_request () =
  let req =
    Protocol.parse_request
      {|{"id": "r1", "workload": "cloverleaf", "device": "k40", "model": "roofline",
         "options": {"generations": 30, "deadline_s": 1.5, "apply": true,
                     "progress": true, "inject_rate": 0.25}}|}
  in
  check Alcotest.string "id" "r1" req.Protocol.id;
  check Alcotest.(option string) "workload" (Some "cloverleaf") req.Protocol.workload;
  check Alcotest.string "device" "k40" req.Protocol.device;
  let o = req.Protocol.options in
  check Alcotest.(option int) "generations" (Some 30) o.Protocol.generations;
  check Alcotest.(option (float 1e-9)) "deadline" (Some 1.5) o.Protocol.deadline_s;
  check Alcotest.bool "apply" true o.Protocol.apply;
  check Alcotest.bool "progress" true o.Protocol.progress;
  check Alcotest.(option (float 1e-9)) "inject" (Some 0.25) o.Protocol.inject_rate;
  (* defaults *)
  let d = Protocol.parse_request {|{"workload": "motivating"}|} in
  check Alcotest.string "default device" "k20x" d.Protocol.device;
  check Alcotest.string "default model" "proposed" d.Protocol.model;
  check Alcotest.bool "default apply" false d.Protocol.options.Protocol.apply

let test_resolve () =
  (* named, suite: and inline programs resolve; file paths never do *)
  let p, _, _ = Protocol.resolve (Protocol.parse_request {|{"workload": "motivating"}|}) in
  check Alcotest.bool "motivating kernels" true (Kf_ir.Program.num_kernels p > 0);
  let s, _, _ =
    Protocol.resolve
      (Protocol.parse_request {|{"workload": "suite:kernels=8,seed=3"}|})
  in
  check Alcotest.int "suite kernels" 8 (Kf_ir.Program.num_kernels s);
  let text = Kf_ir.Program_io.print (Kf_workloads.Motivating.program ()) in
  let req =
    Protocol.parse_request (Json.to_string (Client.request ~program:text ()))
  in
  let inl, _, _ = Protocol.resolve req in
  check Alcotest.int "inline kernels" (Kf_ir.Program.num_kernels p)
    (Kf_ir.Program.num_kernels inl);
  List.iter
    (fun r ->
      match Protocol.resolve (Protocol.parse_request r) with
      | _ -> Alcotest.failf "resolved %S" r
      | exception Protocol.Bad_request _ -> ())
    [
      {|{"workload": "file:/etc/passwd"}|};
      {|{"workload": "nope"}|};
      {|{"workload": "suite:kernels=zap"}|};
      {|{"program": "not a program"}|};
      {|{"workload": "motivating", "device": "h100"}|};
      {|{"workload": "motivating", "model": "oracle"}|};
    ]

let test_retriable () =
  List.iter
    (fun (code, want) ->
      check Alcotest.bool (Protocol.code_name code) want (Protocol.retriable code))
    [
      (Protocol.Overload, true);
      (Protocol.Shutdown, true);
      (Protocol.Deadline, true);
      (Protocol.Malformed, false);
      (Protocol.Internal, false);
    ]

(* --- cache store --- *)

let verdict cost = { Objective.feasible = true; cost; orig_sum = cost *. 2. }

(* The store's flat block of the (signature, verdict) pairs, in order. *)
let block entries =
  let vs = Array.of_list (List.map snd entries) in
  let offs = Array.make (Array.length vs + 1) 0 in
  List.iteri (fun i (k, _) -> offs.(i + 1) <- offs.(i) + Array.length k) entries;
  {
    Objective.Block.keys = Array.concat (List.map fst entries);
    offs;
    cost = Array.map (fun v -> v.Objective.cost) vs;
    orig_sum = Array.map (fun v -> v.Objective.orig_sum) vs;
    feasible = Bytes.init (Array.length vs) (fun i -> if vs.(i).Objective.feasible then '\001' else '\000');
  }

let stored t k = Objective.Block.length (Cache_store.find t k)

let test_cache_store () =
  let t = Cache_store.create ~max_entries:2 () in
  check Alcotest.bool "cold" true (stored t "a" = 0);
  Cache_store.absorb t "a" (block [ ([| 0; 1 |], verdict 1.) ]);
  Cache_store.absorb t "a" (block []);
  (* empty ignored *)
  check Alcotest.int "one verdict" 1 (stored t "a");
  (* the larger block wins; a smaller one never shrinks the entry *)
  Cache_store.absorb t "a" (block [ ([| 0; 1 |], verdict 1.); ([| 1; 2 |], verdict 2.) ]);
  Cache_store.absorb t "a" (block [ ([| 9 |], verdict 9.) ]);
  check Alcotest.int "kept larger" 2 (stored t "a");
  check Alcotest.int "verdict count" 2 (Cache_store.verdict_count t);
  (* FIFO cap *)
  Cache_store.absorb t "b" (block [ ([| 2; 3 |], verdict 3.) ]);
  Cache_store.absorb t "c" (block [ ([| 4; 5 |], verdict 4.) ]);
  check Alcotest.int "capped" 2 (Cache_store.programs t);
  check Alcotest.bool "oldest evicted" true (stored t "a" = 0);
  check Alcotest.bool "newest kept" true (stored t "c" <> 0)

let test_cache_persistence () =
  let path = Filename.temp_file "kfuse_cache" ".json" in
  let t = Cache_store.create () in
  Cache_store.absorb t "deadbeef"
    (block
       [
         ([| 0; 1 |], verdict 0.5);
         ([| 2; 3; 4 |], { Objective.feasible = false; cost = infinity; orig_sum = 1.5 });
       ]);
  check Alcotest.bool "dirty after absorb" true (Cache_store.dirty t);
  Cache_store.save t path;
  check Alcotest.bool "clean after save" false (Cache_store.dirty t);
  let t2 = Cache_store.create () in
  Cache_store.load t2 path;
  check Alcotest.bool "roundtrip" true
    (Cache_store.find t "deadbeef" = Cache_store.find t2 "deadbeef");
  (* the [kind] field keeps the two documents apart: neither another
     kind nor a search checkpoint loads as a cache document, and a cache
     document does not load as a checkpoint *)
  let not_cache = Filename.temp_file "kfuse_cache" ".json" in
  let refused doc =
    let oc = open_out not_cache in
    output_string oc doc;
    close_out oc;
    match Cache_store.load t2 not_cache with
    | _ -> Alcotest.failf "loaded a non-cache document: %s" doc
    | exception Snapshot.Malformed _ -> ()
  in
  refused {|{"format": 8, "kind": "other", "entries": []}|};
  refused
    (Snapshot.render
       {
         Snapshot.population_size = 1;
         seed = 1;
         n = 1;
         generation = 0;
         stall = 0;
         evaluations = 0;
         wall_time_s = 0.;
         faults = Objective.zero_faults ();
         migration_cursor = 0;
         group_cache = { Objective.hits = 0; misses = 0; evictions = 0; size = 0 };
         plan_cache = { Objective.hits = 0; misses = 0; evictions = 0; size = 0 };
         horizontal = false;
         best = [ [ [ 0 ] ] ];
         history = [];
         islands = [ { Snapshot.rng_state = 1L; population = [ [ [ [ 0 ] ] ] ] } ];
       });
  (match Snapshot.load path with
  | _ -> Alcotest.fail "loaded a cache document as a checkpoint"
  | exception Snapshot.Malformed _ -> ());
  Sys.remove path;
  Sys.remove not_cache

let test_cache_lru_recency () =
  (* The bound is LRU, not FIFO: reading a key refreshes it, so the
     stalest — not the oldest — entry is the victim. *)
  let t = Cache_store.create ~max_entries:2 () in
  Cache_store.absorb t "a" (block [ ([| 0; 1 |], verdict 1.) ]);
  Cache_store.absorb t "b" (block [ ([| 2; 3 |], verdict 2.) ]);
  ignore (Cache_store.find t "a");
  Cache_store.absorb t "c" (block [ ([| 4; 5 |], verdict 3.) ]);
  check Alcotest.bool "stalest (b) evicted" true (stored t "b" = 0);
  check Alcotest.bool "recently-read (a) kept" true (stored t "a" <> 0);
  check Alcotest.int "eviction counted" 1 (Cache_store.evictions t)

let test_cache_bounded_growth () =
  (* A streaming session mints one digest per program version; 1000
     synthetic edits must leave both the store and the persisted file
     bounded by the configured cap. *)
  let cap = 32 in
  let t = Cache_store.create ~max_entries:cap () in
  for i = 1 to 1000 do
    let key = Printf.sprintf "edit-%d" i in
    Cache_store.absorb t key (block [ ([| 0; 1 |], verdict (float_of_int i)) ]);
    Cache_store.store_plan t key
      { Snapshot.Cache.groups = [ [ 0; 1 ]; [ 2 ] ]; cost = float_of_int i; fingerprint = "fp" }
  done;
  check Alcotest.int "store bounded" cap (Cache_store.programs t);
  check Alcotest.int "evictions counted" (1000 - cap) (Cache_store.evictions t);
  let path = Filename.temp_file "kfuse_bounded" ".json" in
  Cache_store.save t path;
  let ic = open_in path in
  let size = in_channel_length ic in
  close_in ic;
  check Alcotest.bool "persisted file bounded" true (size < 64 * 1024);
  let t2 = Cache_store.create ~max_entries:cap () in
  Cache_store.load t2 path;
  check Alcotest.int "reload bounded" cap (Cache_store.programs t2);
  check Alcotest.bool "latest edit survived" true (Cache_store.find_plan t2 "edit-1000" <> None);
  check Alcotest.bool "early edit evicted" true (Cache_store.find_plan t2 "edit-1" = None);
  Sys.remove path

let test_cache_plan_roundtrip () =
  (* Format 6: the stored answer persists with the verdicts. *)
  let path = Filename.temp_file "kfuse_plan" ".json" in
  let t = Cache_store.create () in
  Cache_store.absorb t "k" (block [ ([| 0; 1 |], verdict 0.25) ]);
  Cache_store.store_plan t "k"
    { Snapshot.Cache.groups = [ [ 0; 1 ]; [ 2; 3 ] ]; cost = 0.125; fingerprint = "hgga.1|x" };
  Cache_store.save t path;
  let t2 = Cache_store.create () in
  Cache_store.load t2 path;
  (match Cache_store.find_plan t2 "k" with
  | None -> Alcotest.fail "plan lost in roundtrip"
  | Some p ->
      check Alcotest.(list (list int)) "groups" [ [ 0; 1 ]; [ 2; 3 ] ] p.Snapshot.Cache.groups;
      check Alcotest.bool "bitwise cost" true
        (Int64.bits_of_float p.Snapshot.Cache.cost = Int64.bits_of_float 0.125);
      check Alcotest.string "fingerprint" "hgga.1|x" p.Snapshot.Cache.fingerprint);
  Sys.remove path

(* --- lifecycle --- *)

let sock_path () =
  let p = Filename.temp_file "kfuse_serve" ".sock" in
  Sys.remove p;
  p

let with_server ?(workers = 2) ?(max_queue = 16) ?cache_path ?(progress_every = 1) f =
  let socket_path = sock_path () in
  let config =
    {
      (Server.default ~socket_path) with
      Server.workers;
      max_queue;
      cache_path;
      progress_every;
    }
  in
  let srv = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv socket_path)

let str_field name j =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "event lacks string field %S: %s" name (Json.to_string j)

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some v -> v
  | None -> Alcotest.failf "event lacks int field %S: %s" name (Json.to_string j)

let bool_field name j =
  match Json.member name j with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "event lacks bool field %S: %s" name (Json.to_string j)

let terminal client ~id =
  match Client.wait_terminal client ~id with
  | Some r -> r
  | None -> Alcotest.failf "connection closed before a terminal event for %S" id

let quick_options = [ ("generations", Json.Int 40); ("population", Json.Int 20) ]

(* Skip events until one of [kind] arrives. *)
let rec await_kind c kind =
  match Client.next_event c with
  | Some e when Client.event_kind e = Some kind -> ()
  | Some _ -> await_kind c kind
  | None -> Alcotest.failf "eof before a %s event" kind

let test_concurrent_isolation () =
  (* Two clients, different workloads and seeds, answered concurrently:
     each gets its own result, correlated by id, identical to a direct
     in-process solve of the same request. *)
  with_server (fun _srv path ->
      let expect workload seed =
        let program, device, _ =
          Protocol.resolve
            (Protocol.parse_request (Printf.sprintf {|{"workload": %S}|} workload))
        in
        let ctx = Kfuse.Pipeline.prepare ~device program in
        let params =
          { Kf_search.Hgga.default_params with Kf_search.Hgga.max_generations = 40;
            population_size = 20; seed }
        in
        Kf_search.Hgga.solve ~params (Kfuse.Pipeline.objective ctx)
      in
      let run workload seed out =
        let c = Client.connect_retry path in
        let id = Printf.sprintf "%s-%d" workload seed in
        Client.send c
          (Client.request ~id ~workload
             ~options:(("seed", Json.Int seed) :: quick_options)
             ());
        out := Some (terminal c ~id);
        Client.close c
      in
      let r1 = ref None and r2 = ref None in
      let t1 = Thread.create (fun () -> run "motivating" 7 r1) () in
      let t2 = Thread.create (fun () -> run "tealeaf" 11 r2) () in
      Thread.join t1;
      Thread.join t2;
      let check_result workload seed r =
        match r with
        | None -> Alcotest.fail "missing result"
        | Some (_, term) ->
            check Alcotest.string "terminal kind" "result" (str_field "event" term);
            check Alcotest.string "id echo"
              (Printf.sprintf "%s-%d" workload seed)
              (str_field "id" term);
            let expected = expect workload seed in
            let cost =
              match Option.bind (Json.member "cost" term) Json.to_float_opt with
              | Some c -> c
              | None -> Alcotest.fail "result lacks cost"
            in
            check (Alcotest.float 1e-9) "cost matches direct solve"
              expected.Kf_search.Hgga.cost cost
      in
      check_result "motivating" 7 !r1;
      check_result "tealeaf" 11 !r2)

let test_malformed_isolated () =
  (* A garbage line answers with a structured malformed error and leaves
     the connection — and the daemon — serving the next request. *)
  with_server (fun _srv path ->
      let c = Client.connect_retry path in
      Client.send_line c "this is not json";
      (match Client.next_event c with
      | Some ((Json.Obj _) as e) ->
          check Alcotest.string "error event" "error" (str_field "event" e);
          check Alcotest.string "malformed code" "malformed" (str_field "code" e);
          check Alcotest.bool "not retriable" false (bool_field "retriable" e)
      | _ -> Alcotest.fail "no error event for malformed line");
      Client.send c (Client.request ~id:"after" ~workload:"motivating" ~options:quick_options ());
      let _, term = terminal c ~id:"after" in
      check Alcotest.string "still serving" "result" (str_field "event" term);
      Client.close c)

let test_fault_injected_request () =
  (* A request with deterministic fault injection still produces a
     structured result: the guard quarantines, nothing escapes. *)
  with_server (fun _srv path ->
      let c = Client.connect_retry path in
      Client.send c
        (Client.request ~id:"chaos" ~workload:"motivating"
           ~options:
             (("inject_rate", Json.Float 0.2)
             :: ("inject_seed", Json.Int 99)
             :: quick_options)
           ());
      let _, term = terminal c ~id:"chaos" in
      check Alcotest.string "structured result under faults" "result"
        (str_field "event" term);
      Client.close c)

let test_overload_rejection () =
  (* workers=1 and a queue bound of 1: with one request in flight and
     one queued, the third admission must be refused as overload. *)
  with_server ~workers:1 ~max_queue:1 (fun _srv path ->
      let c = Client.connect_retry path in
      (* a 24-kernel generated workload keeps the single worker busy for
         many generations — the drain in [with_server]'s teardown is what
         eventually stops it *)
      let slow i =
        Client.send c
          (Client.request ~id:(Printf.sprintf "s%d" i) ~workload:"suite:kernels=24,seed=5"
             ~options:[ ("generations", Json.Int 100000) ]
             ())
      in
      slow 1;
      (* wait until s1 is actually started (popped from the queue) so the
         queue slot is free for s2 and s3 overflows deterministically *)
      await_kind c "started";
      slow 2;
      (* s2 admitted (fills the queue) *)
      (match Client.next_event c with
      | Some e -> check Alcotest.string "s2 admitted" "admitted" (str_field "event" e)
      | None -> Alcotest.fail "eof");
      slow 3;
      (match Client.next_event c with
      | Some e ->
          check Alcotest.string "s3 rejected" "error" (str_field "event" e);
          check Alcotest.string "overload code" "overload" (str_field "code" e);
          check Alcotest.bool "retriable" true (bool_field "retriable" e)
      | None -> Alcotest.fail "eof");
      Client.close c)

let test_deadline_error () =
  (* An over-budget request gets a structured deadline error while a
     concurrent request proceeds to a normal result. *)
  with_server (fun _srv path ->
      let c1 = Client.connect_retry path in
      let c2 = Client.connect_retry path in
      Client.send c1
        (Client.request ~id:"doomed" ~workload:"suite:kernels=24,seed=5"
           ~options:[ ("deadline_s", Json.Float 1e-4); ("generations", Json.Int 100000) ]
           ());
      Client.send c2 (Client.request ~id:"fine" ~workload:"motivating" ~options:quick_options ());
      let _, doomed = terminal c1 ~id:"doomed" in
      check Alcotest.string "deadline error" "error" (str_field "event" doomed);
      check Alcotest.string "deadline code" "deadline" (str_field "code" doomed);
      check Alcotest.bool "deadline retriable" true (bool_field "retriable" doomed);
      let _, fine = terminal c2 ~id:"fine" in
      check Alcotest.string "other request unaffected" "result" (str_field "event" fine);
      Client.close c1;
      Client.close c2)

let test_drain () =
  (* SIGTERM semantics (driven via [drain] in-process): the in-flight
     request still delivers a terminal result, the queued one is
     rejected retriably, and the socket is removed after the drain. *)
  let socket_path = sock_path () in
  let config = { (Server.default ~socket_path) with Server.workers = 1; progress_every = 1 } in
  let srv = Server.start config in
  let c = Client.connect_retry socket_path in
  Client.send c
    (Client.request ~id:"inflight" ~workload:"suite:kernels=24,seed=5"
       ~options:
         [
           ("generations", Json.Int 100000);
           ("progress", Json.Bool true);
           ("seed", Json.Int 3);
         ]
       ());
  (* wait until the search demonstrably runs, then drain mid-flight *)
  await_kind c "progress";
  Client.send c (Client.request ~id:"queued" ~workload:"motivating" ~options:quick_options ());
  (* drain discards unread input (EOF via SHUTDOWN_RECEIVE), so make sure
     the queued request is admitted before flipping the flag *)
  let rec await_admitted () =
    match Client.next_event c with
    | Some e
      when Client.event_id e = Some "queued" && Client.event_kind e = Some "admitted" ->
        ()
    | Some _ -> await_admitted ()
    | None -> Alcotest.fail "eof before the second request was admitted"
  in
  await_admitted ();
  Server.drain srv;
  let inflight_term = ref None and queued_term = ref None in
  let rec collect () =
    match Client.next_event c with
    | None -> ()
    | Some e ->
        (match (Client.event_id e, Client.event_kind e) with
        | Some "inflight", Some ("result" | "error") -> inflight_term := Some e
        | Some "queued", Some ("result" | "error") -> queued_term := Some e
        | _ -> ());
        collect ()
  in
  collect ();
  Server.wait srv;
  (match !inflight_term with
  | Some e ->
      check Alcotest.string "in-flight finishes with a result" "result"
        (str_field "event" e)
  | None -> Alcotest.fail "no terminal event for the in-flight request");
  (match !queued_term with
  | Some e ->
      (* admitted before the drain -> retriable shutdown rejection; the
         admission itself may also already have been refused *)
      check Alcotest.string "queued rejected" "error" (str_field "event" e);
      check Alcotest.string "shutdown code" "shutdown" (str_field "code" e);
      check Alcotest.bool "queued retriable" true (bool_field "retriable" e)
  | None -> Alcotest.fail "no terminal event for the queued request");
  check Alcotest.bool "socket removed" false (Sys.file_exists socket_path);
  Client.close c

let test_sigterm_drain () =
  (* The real signal path of [kfuse serve]: SIGTERM, delivered to this
     process mid-search, drains through the installed handlers.  The
     in-flight result arrives, the socket goes and the cache is saved. *)
  let socket_path = sock_path () in
  let cache_path = Filename.temp_file "kfuse_sigterm" ".json" in
  Sys.remove cache_path;
  let config =
    { (Server.default ~socket_path) with Server.workers = 1; progress_every = 1;
      cache_path = Some cache_path }
  in
  let srv = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun s -> Sys.set_signal s Sys.Signal_default) [ Sys.sigterm; Sys.sigint ];
      if Sys.file_exists cache_path then Sys.remove cache_path)
    (fun () ->
      Server.install_signal_handlers srv;
      let c = Client.connect_retry socket_path in
      Client.send c
        (Client.request ~id:"inflight" ~workload:"suite:kernels=24,seed=5"
           ~options:[ ("generations", Json.Int 100000); ("progress", Json.Bool true) ]
           ());
      await_kind c "progress";
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      let _, term = terminal c ~id:"inflight" in
      Server.wait srv;
      Client.close c;
      check Alcotest.string "in-flight result delivered" "result" (str_field "event" term);
      check Alcotest.bool "socket removed" false (Sys.file_exists socket_path);
      check Alcotest.bool "cache persisted" true (Sys.file_exists cache_path))

let test_warm_restart () =
  (* Stop a daemon with a persisted cache, restart over the same file:
     the repeat request must hit the warm cache. *)
  let cache_path = Filename.temp_file "kfuse_warm" ".json" in
  Sys.remove cache_path;
  let ask path id =
    let c = Client.connect_retry path in
    Client.send c (Client.request ~id ~workload:"motivating" ~options:quick_options ());
    let _, term = terminal c ~id in
    Client.close c;
    term
  in
  let cold =
    with_server ~cache_path (fun _srv path -> ask path "cold")
  in
  check Alcotest.string "cold result" "result" (str_field "event" cold);
  check Alcotest.bool "cold start" false (bool_field "warm" cold);
  check Alcotest.bool "cache persisted" true (Sys.file_exists cache_path);
  let warm =
    with_server ~cache_path (fun srv path ->
        check Alcotest.bool "cache restored" true (Server.cache_programs srv > 0);
        ask path "warm")
  in
  check Alcotest.string "warm result" "result" (str_field "event" warm);
  check Alcotest.bool "warm start" true (bool_field "warm" warm);
  (* format 6: the persisted store also carries the completed search's
     answer, so the identical repeat request is served outright — no
     search runs at all *)
  check Alcotest.string "served from store" "cached" (str_field "stop" warm);
  check Alcotest.bool "cached marker" true (bool_field "cached" warm);
  (* determinism: warmth must not change the answer *)
  let cost j =
    match Option.bind (Json.member "cost" j) Json.to_float_opt with
    | Some c -> c
    | None -> Alcotest.fail "no cost"
  in
  check (Alcotest.float 1e-12) "warm cost identical" (cost cold) (cost warm);
  Sys.remove cache_path

let test_corrupt_stored_plan_searches () =
  (* A stored plan comes from a file the daemon does not trust: one that
     is not a plan of the request's program must fall through to a real
     search, never be sent back as a cached answer. *)
  let cache_path = Filename.temp_file "kfuse_corrupt_plan" ".json" in
  Sys.remove cache_path;
  let ask path id =
    let c = Client.connect_retry path in
    Client.send c (Client.request ~id ~workload:"motivating" ~options:quick_options ());
    let _, term = terminal c ~id in
    Client.close c;
    term
  in
  let cold = with_server ~cache_path (fun _srv path -> ask path "cold") in
  check Alcotest.string "cold result" "result" (str_field "event" cold);
  let entries = Snapshot.Cache.load cache_path in
  check Alcotest.bool "a plan was stored" true
    (List.exists (fun e -> e.Snapshot.Cache.plan <> None) entries);
  Snapshot.Cache.save cache_path
    (List.map
       (fun e ->
         {
           e with
           Snapshot.Cache.plan =
             Option.map
               (fun p -> { p with Snapshot.Cache.groups = [ [ -5; 0; 0 ] ] })
               e.Snapshot.Cache.plan;
         })
       entries);
  let again = with_server ~cache_path (fun _srv path -> ask path "again") in
  check Alcotest.string "answered" "result" (str_field "event" again);
  check Alcotest.bool "searched, not served from the store" true
    (str_field "stop" again <> "cached");
  check Alcotest.bool "no cached marker" true
    (match Json.member "cached" again with Some (Json.Bool true) -> false | _ -> true);
  Sys.remove cache_path

let test_zero_budget_warm () =
  (* The deadline-ordering bugfix: a request fully answerable from the
     warm store is served even when its deadline already elapsed in the
     queue — the store is probed before remaining time is converted into
     a wall budget, so a free answer never becomes a deadline error. *)
  with_server (fun _srv path ->
      let c = Client.connect_retry path in
      Client.send c (Client.request ~id:"fill" ~workload:"motivating" ~options:quick_options ());
      let _, fill = terminal c ~id:"fill" in
      check Alcotest.string "fill result" "result" (str_field "event" fill);
      (* a 1 microsecond deadline has certainly passed by dequeue time *)
      Client.send c
        (Client.request ~id:"zero" ~workload:"motivating"
           ~options:(("deadline_s", Json.Float 1e-6) :: quick_options)
           ());
      let _, zero = terminal c ~id:"zero" in
      check Alcotest.string "warm answer, not a deadline error" "result"
        (str_field "event" zero);
      check Alcotest.string "served from store" "cached" (str_field "stop" zero);
      check Alcotest.bool "cached marker" true (bool_field "cached" zero);
      let cost j =
        match Option.bind (Json.member "cost" j) Json.to_float_opt with
        | Some v -> v
        | None -> Alcotest.fail "no cost"
      in
      check (Alcotest.float 1e-12) "identical answer" (cost fill) (cost zero);
      (* different search parameters -> different fingerprint -> a real
         search (and, with this deadline, a deadline error) *)
      Client.send c
        (Client.request ~id:"other" ~workload:"motivating"
           ~options:
             [ ("generations", Json.Int 41); ("population", Json.Int 20);
               ("deadline_s", Json.Float 1e-6) ]
           ());
      let _, other = terminal c ~id:"other" in
      check Alcotest.string "fingerprint mismatch falls through" "error"
        (str_field "event" other);
      check Alcotest.string "deadline code" "deadline" (str_field "code" other);
      Client.close c)

let print_program p = Kf_ir.Program_io.print p

let test_stream_session () =
  (* End-to-end streaming: one client, one session, three program
     versions over a single connection. *)
  with_server (fun srv path ->
      let c = Client.connect_retry path in
      let base = Kf_workloads.Motivating.program () in
      let edited =
        Kf_ir.Program.edit_kernel base 2 (fun k ->
            { k with Kf_ir.Kernel.extra_flops_per_site = k.Kf_ir.Kernel.extra_flops_per_site +. 7. })
      in
      let ask id program =
        Client.send c
          (Client.request ~id ~session:"edits" ~program:(print_program program)
             ~options:quick_options ());
        let _, term = terminal c ~id in
        term
      in
      let r0 = ask "v0" base in
      check Alcotest.string "v0 result" "result" (str_field "event" r0);
      check Alcotest.string "session echoed" "edits" (str_field "session" r0);
      check Alcotest.int "version 0" 0 (int_field "version" r0);
      check Alcotest.string "v0 full search" "full-search" (str_field "rung" r0);
      check Alcotest.int "one live session" 1 (Server.stream_sessions srv);
      let r1 = ask "v1" edited in
      check Alcotest.int "version 1" 1 (int_field "version" r1);
      check Alcotest.string "v1 repairs" "repair-search" (str_field "rung" r1);
      check Alcotest.int "edit counts as removed+added" 2 (int_field "changed" r1);
      check Alcotest.bool "totals accumulate" true
        (int_field "total_evaluations" r1
        >= int_field "evaluations" r1 + int_field "evaluations" r0);
      let r2 = ask "v2" edited in
      check Alcotest.int "version 2" 2 (int_field "version" r2);
      check Alcotest.int "identical program, no change" 0 (int_field "changed" r2);
      check Alcotest.int "still one session" 1 (Server.stream_sessions srv);
      (* a session is pinned to its device/model pair *)
      Client.send c
        (Client.request ~id:"wrong" ~session:"edits" ~device:"k40"
           ~program:(print_program base) ~options:quick_options ());
      let _, wrong = terminal c ~id:"wrong" in
      check Alcotest.string "device mismatch rejected" "error" (str_field "event" wrong);
      check Alcotest.string "malformed code" "malformed" (str_field "code" wrong);
      Client.close c)

let suite =
  [
    ("parse malformed requests", `Quick, test_parse_malformed);
    ("parse request fields", `Quick, test_parse_request);
    ("resolve names only", `Quick, test_resolve);
    ("retriable taxonomy", `Quick, test_retriable);
    ("cache store bounds", `Quick, test_cache_store);
    ("cache store persistence", `Quick, test_cache_persistence);
    ("cache LRU recency", `Quick, test_cache_lru_recency);
    ("cache bounded under 1000 edits", `Quick, test_cache_bounded_growth);
    ("cache stored-plan roundtrip", `Quick, test_cache_plan_roundtrip);
    ("concurrent clients isolated", `Slow, test_concurrent_isolation);
    ("malformed request isolated", `Slow, test_malformed_isolated);
    ("fault-injected request structured", `Slow, test_fault_injected_request);
    ("overload rejection", `Slow, test_overload_rejection);
    ("deadline error while others proceed", `Slow, test_deadline_error);
    ("graceful drain", `Slow, test_drain);
    ("warm restart from persisted cache", `Slow, test_warm_restart);
    ("corrupt stored plan searches", `Slow, test_corrupt_stored_plan_searches);
    ("zero-budget warm request", `Slow, test_zero_budget_warm);
    ("streaming session", `Slow, test_stream_session);
    ("SIGTERM drain through the signal handlers", `Slow, test_sigterm_drain);
  ]
