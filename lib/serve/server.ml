(* The kfuse serve daemon.

   Threading model (OCaml 5: systhreads for IO, domains for compute):

     accept thread     select(2) loop on the listening socket; exits on
                       drain and prunes finished connection handlers
     handler threads   one per connection: read request lines, validate,
                       admit into the bounded queue, answer malformed /
                       overload / drain rejections inline
     worker domains    [workers] domains spawned at start and joined at
                       drain; each loops taking admitted jobs and
                       executing them behind [Kf_robust.Guard]
     timer thread      periodic warm-cache persistence + polls the
                       signal-set drain flag (signal handlers only flip
                       an atomic — they never touch locks)

   Invariant: every admitted request is answered with exactly one
   terminal event (result or error), whatever happens — faults are
   quarantined by the guard, stage exceptions are classified, drain
   converts queued work into retriable rejections, and the per-job
   exception net converts anything left into a structured internal
   error.  The daemon itself never dies on request content. *)

module Json = Kf_obs.Json
module Metrics = Kf_obs.Metrics
module Pipeline = Kfuse.Pipeline
module Hgga = Kf_search.Hgga
module Objective = Kf_search.Objective
module Stream = Kf_search.Stream
module Snapshot = Kf_search.Snapshot
module Error = Kf_robust.Error
module Guard = Kf_robust.Guard
module Inject = Kf_robust.Inject

type config = {
  socket_path : string;
  workers : int;
  max_queue : int;
  cache_path : string option;
  cache_entries : int;
  max_sessions : int;
  default_slo_ms : float option;
  persist_every_s : float;
  progress_every : int;
  log : string -> unit;
}

let default ~socket_path =
  {
    socket_path;
    workers = 2;
    max_queue = 16;
    cache_path = None;
    cache_entries = 64;
    max_sessions = 8;
    default_slo_ms = None;
    persist_every_s = 30.;
    progress_every = 5;
    log = ignore;
  }

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;  (* serializes writes; also guards [alive]/[pending] *)
  mutable alive : bool;
  mutable pending : int;  (* admitted-but-unanswered jobs on this connection *)
  done_cv : Condition.t;  (* signaled when [pending] reaches 0 *)
}

type handler = { mutable thread : Thread.t option; mutable finished : bool }
type job = { req : Protocol.request; conn : conn; admit_s : float }

(* A streaming session: the warm state a long-lived client accumulates
   across edits.  The per-session mutex serializes its decisions (two
   queued steps on one session must observe each other's plan);
   [s_current] carries the objective of the in-flight decision so its
   verdicts can be absorbed into the warm store afterwards. *)
type session = {
  s_name : string;
  s_lock : Mutex.t;
  s_device : string;
  s_model : string;
  mutable s_stream : Stream.t option;  (* [None] until version 0 decides *)
  mutable s_current : (string * Objective.t) option;
  mutable s_last_use : int;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  qlock : Mutex.t;
  qcv : Condition.t;
  queue : job Queue.t;
  draining : bool Atomic.t;
  drain_requested : bool Atomic.t;  (* set by signal handlers *)
  hlock : Mutex.t;
  mutable handlers : handler list;
  mutable conns : conn list;
  cache : Cache_store.t;
  slock : Mutex.t;  (* guards the session registry and its LRU tick *)
  sessions : (string, session) Hashtbl.t;
  mutable session_tick : int;
  mutable accept_thread : Thread.t option;
  mutable worker_domains : unit Domain.t list;
  mutable timer_thread : Thread.t option;
}

let now () = Unix.gettimeofday ()

(* --- metrics --- *)

let m_requests = lazy (Metrics.counter "serve.requests")
let m_malformed = lazy (Metrics.counter "serve.malformed")
let m_rejected_overload = lazy (Metrics.counter "serve.rejected_overload")
let m_rejected_shutdown = lazy (Metrics.counter "serve.rejected_shutdown")
let m_deadline_missed = lazy (Metrics.counter "serve.deadline_missed")
let m_completed = lazy (Metrics.counter "serve.completed")
let m_internal_errors = lazy (Metrics.counter "serve.internal_errors")
let m_warm_requests = lazy (Metrics.counter "serve.warm_requests")
let m_cached_results = lazy (Metrics.counter "serve.cached_results")
let m_stream_decisions = lazy (Metrics.counter "serve.stream.decisions")
let m_stream_slo_tripped = lazy (Metrics.counter "serve.stream.slo_tripped")
let m_stream_evicted = lazy (Metrics.counter "serve.stream.evicted")
let g_stream_sessions = lazy (Metrics.gauge "serve.stream.sessions")
let g_queue_depth = lazy (Metrics.gauge "serve.queue_depth")
let g_cache_programs = lazy (Metrics.gauge "serve.cache.programs")
let g_cache_hit_rate = lazy (Metrics.gauge "serve.cache.hit_rate")
let g_cache_evictions = lazy (Metrics.gauge "serve.cache.evictions")
let h_latency = lazy (Metrics.histogram "serve.latency_s")

(* --- connection IO --- *)

let send conn json =
  Mutex.lock conn.wlock;
  (if conn.alive then
     try
       output_string conn.oc (Json.to_string json);
       output_char conn.oc '\n';
       flush conn.oc
     with Sys_error _ | Unix.Unix_error _ ->
       (* client went away: stop writing, but keep serving its admitted
          jobs to completion (their results are simply dropped) *)
       conn.alive <- false);
  Mutex.unlock conn.wlock

let pending_incr conn =
  Mutex.lock conn.wlock;
  conn.pending <- conn.pending + 1;
  Mutex.unlock conn.wlock

let pending_decr conn =
  Mutex.lock conn.wlock;
  conn.pending <- conn.pending - 1;
  if conn.pending = 0 then Condition.broadcast conn.done_cv;
  Mutex.unlock conn.wlock

(* --- request execution (worker domains) --- *)

let params_of (o : Protocol.options) =
  let p = Hgga.default_params in
  {
    p with
    Hgga.max_generations = Option.value o.generations ~default:p.Hgga.max_generations;
    population_size = Option.value o.population ~default:p.Hgga.population_size;
    seed = Option.value o.seed ~default:p.Hgga.seed;
    domains = Option.value o.domains ~default:p.Hgga.domains;
  }

(* Identifies the search a stored plan answers.  [domains] is
   deliberately excluded: the determinism contract makes the result
   bit-identical for any worker-domain count, so a plan computed with 2
   domains answers a 4-domain request exactly. *)
let params_fingerprint (p : Hgga.params) =
  Printf.sprintf "hgga.1|pop%d|gen%d|stall%d|cx%h|mut%h|tour%d|elite%d|seed%d|isl%d|mi%d|ms%d"
    p.Hgga.population_size p.Hgga.max_generations p.Hgga.stall_generations
    p.Hgga.crossover_rate p.Hgga.mutation_rate p.Hgga.tournament_size p.Hgga.elite
    p.Hgga.seed p.Hgga.islands p.Hgga.migration_interval p.Hgga.migration_size

(* The deadline is measured from admission, so queue wait counts against
   it; whatever remains at start becomes a wall budget.  [`Deadline] vs
   [`User] records which bound is the tighter one, so a Wall_budget stop
   can be reported as a deadline miss only when the deadline caused it. *)
let wall_budget (o : Protocol.options) ~remaining =
  match (o.max_wall_s, remaining) with
  | None, None -> (`None, None)
  | Some w, None -> (`User, Some w)
  | None, Some r -> (`Deadline, Some r)
  | Some w, Some r -> if r < w then (`Deadline, Some r) else (`User, Some w)

(* Hand a finished objective's verdicts back to the warm store. *)
let absorb t key obj =
  Cache_store.absorb t.cache key (Objective.export_block obj);
  Metrics.set (Lazy.force g_cache_programs) (float_of_int (Cache_store.programs t.cache));
  Metrics.set (Lazy.force g_cache_evictions) (float_of_int (Cache_store.evictions t.cache))

let run_request t job ~started_s ~remaining =
  let req = job.req in
  let o = req.options in
  let program, device, model = Protocol.resolve req in
  let key = Cache_store.key ~program ~device ~model in
  let seed = Cache_store.find t.cache key in
  let warm = Objective.Block.length seed > 0 in
  if warm then Metrics.incr (Lazy.force m_warm_requests);
  match Pipeline.prepare_safe ~device program with
  | Error e -> send job.conn (Protocol.error ~id:req.id ~code:Internal ~message:(Error.to_string e))
  | Ok ctx ->
      let faults = Objective.zero_faults () in
      let inject =
        Option.map
          (fun rate -> Inject.create ~faults (Inject.config ?seed:o.inject_seed rate))
          o.inject_rate
      in
      let guard = Guard.guarded ?inject faults in
      let obj = Pipeline.objective ~model ~guard ~faults ctx in
      Objective.seed_block obj seed;
      let wall_source, max_wall_s = wall_budget o ~remaining in
      let budget =
        { Hgga.unlimited with Hgga.max_evaluations = o.max_evaluations; max_wall_s }
      in
      let on_generation =
        if not o.progress then None
        else
          Some
            (fun (p : Hgga.progress) ->
              if p.Hgga.p_generation mod max 1 t.config.progress_every = 0 then
                send job.conn (Protocol.progress ~id:req.id p))
      in
      let interrupt () = Atomic.get t.draining in
      let finish () =
        (* the request's checkpoint: whatever was evaluated — even by an
           interrupted or failed search — warms every later request *)
        absorb t key obj;
        Metrics.set (Lazy.force g_cache_hit_rate) (Objective.cache_hit_rate obj)
      in
      (match Pipeline.search_safe ~params:(params_of o) ~budget ?on_generation ~interrupt ctx obj with
      | Error e ->
          Metrics.incr (Lazy.force m_internal_errors);
          send job.conn (Protocol.error ~id:req.id ~code:Internal ~message:(Error.to_string e))
      | Ok result ->
          let stats = result.Hgga.stats in
          let deadline_tripped =
            stats.Hgga.stop = Hgga.Wall_budget && wall_source = `Deadline
          in
          if deadline_tripped then begin
            Metrics.incr (Lazy.force m_deadline_missed);
            send job.conn
              (Protocol.error ~id:req.id ~code:Deadline
                 ~message:
                   (Printf.sprintf
                      "deadline of %.3f s exceeded (%.3f s queued, %d evaluations done)"
                      (Option.get o.deadline_s) (started_s -. job.admit_s)
                      stats.Hgga.evaluations))
          end
          else begin
            let cache = Objective.cache_stats obj in
            let outcome =
              if not o.apply then Ok None
              else Result.map Option.some (Pipeline.apply_safe ctx obj result)
            in
            match outcome with
            | Error e ->
                Metrics.incr (Lazy.force m_internal_errors);
                send job.conn
                  (Protocol.error ~id:req.id ~code:Internal ~message:(Error.to_string e))
            | Ok outcome ->
                (* A search that ran to its own stop rule (not a budget,
                   not an interrupt, not under fault injection) is the
                   triple's definitive answer for these parameters:
                   store it so an identical repeat request skips the
                   search entirely. *)
                if
                  o.inject_rate = None
                  && (stats.Hgga.stop = Hgga.Converged
                     || stats.Hgga.stop = Hgga.Generation_cap)
                then
                  Cache_store.store_plan t.cache key
                    {
                      Snapshot.Cache.groups = result.Hgga.groups;
                      cost = result.Hgga.cost;
                      fingerprint = params_fingerprint (params_of o);
                    };
                Metrics.incr (Lazy.force m_completed);
                Metrics.observe (Lazy.force h_latency) (now () -. job.admit_s);
                send job.conn (Protocol.result ~id:req.id ~warm ~cache ?outcome result)
          end);
      finish ()

(* A stored plan comes from a file: it answers only when it is a valid
   plan of the request's program — otherwise the request searches, so a
   corrupt cache file only costs warmth. *)
let plan_fits program groups =
  match Kf_fusion.Plan.of_groups ~n:(Kf_ir.Program.num_kernels program) groups with
  | _ -> true
  | exception Invalid_argument _ -> false

(* The satellite of the deadline bugfix: a request fully answerable from
   the warm store costs no search, so it must be served even when the
   deadline has (nearly) elapsed at dequeue — the cache probe runs
   *before* remaining time is converted into a wall budget, and before
   the zero-budget rejection.  Only pure search requests qualify: apply
   work, explicit budgets and fault injection all change the answer or
   require running real work. *)
let try_cached t job =
  let req = job.req in
  let o = req.options in
  if
    req.Protocol.session <> None || o.Protocol.apply || o.Protocol.max_evaluations <> None
    || o.Protocol.max_wall_s <> None || o.Protocol.inject_rate <> None
  then false
  else begin
    let program, device, model = Protocol.resolve req in
    let key = Cache_store.key ~program ~device ~model in
    match Cache_store.find_plan t.cache key with
    | Some p
      when String.equal p.Snapshot.Cache.fingerprint (params_fingerprint (params_of o))
           && plan_fits program p.Snapshot.Cache.groups ->
        Metrics.incr (Lazy.force m_warm_requests);
        Metrics.incr (Lazy.force m_cached_results);
        Metrics.incr (Lazy.force m_completed);
        Metrics.observe (Lazy.force h_latency) (now () -. job.admit_s);
        send job.conn (Protocol.started ~id:req.id);
        send job.conn
          (Protocol.cached_result ~id:req.id ~groups:p.Snapshot.Cache.groups
             ~cost:p.Snapshot.Cache.cost);
        true
    | _ -> false
  end

(* --- streaming sessions --- *)

let stream_config t (o : Protocol.options) =
  {
    (Stream.config_of_params (params_of o)) with
    Stream.slo_s =
      (match o.Protocol.slo_ms with
      | Some ms -> Some (ms /. 1000.)
      | None -> Option.map (fun ms -> ms /. 1000.) t.config.default_slo_ms);
  }

(* Find or create the session under the registry lock; the returned
   session is then driven under its own lock.  The registry is LRU-
   bounded like the warm store — a session's searchable state is
   rebuilt from scratch (one full search) if it was evicted. *)
let session_acquire t ~name ~device ~model =
  Mutex.lock t.slock;
  let release () = Mutex.unlock t.slock in
  match Hashtbl.find_opt t.sessions name with
  | Some s ->
      if s.s_device <> device || s.s_model <> model then begin
        release ();
        Protocol.(
          raise
            (Bad_request
               (Printf.sprintf "session %S is bound to device %s / model %s" name s.s_device
                  s.s_model)))
      end;
      t.session_tick <- t.session_tick + 1;
      s.s_last_use <- t.session_tick;
      release ();
      s
  | None ->
      while Hashtbl.length t.sessions >= t.config.max_sessions do
        let victim = ref None in
        Hashtbl.iter
          (fun _ s ->
            match !victim with
            | Some v when v.s_last_use <= s.s_last_use -> ()
            | _ -> victim := Some s)
          t.sessions;
        match !victim with
        | Some v ->
            Hashtbl.remove t.sessions v.s_name;
            Metrics.incr (Lazy.force m_stream_evicted)
        | None -> ()
      done;
      t.session_tick <- t.session_tick + 1;
      let s =
        {
          s_name = name;
          s_lock = Mutex.create ();
          s_device = device;
          s_model = model;
          s_stream = None;
          s_current = None;
          s_last_use = t.session_tick;
        }
      in
      Hashtbl.replace t.sessions name s;
      Metrics.set (Lazy.force g_stream_sessions) (float_of_int (Hashtbl.length t.sessions));
      release ();
      s

let run_stream t job =
  let req = job.req in
  let name = Option.get req.Protocol.session in
  let program, device, model = Protocol.resolve req in
  let s = session_acquire t ~name ~device:req.Protocol.device ~model:req.Protocol.model in
  Mutex.lock s.s_lock;
  Fun.protect
    ~finally:(fun () ->
      s.s_current <- None;
      Mutex.unlock s.s_lock)
    (fun () ->
      (* Per-version objectives seed from (and report back to) the warm
         store: the digest content-addresses the exact program version,
         so a client revisiting a version gets its verdicts back free —
         and soundly, since verdicts never cross distinct digests. *)
      let env p =
        let obj = Pipeline.objective ~model (Pipeline.prepare ~device p) in
        let key = Cache_store.key ~program:p ~device ~model in
        Objective.seed_block obj (Cache_store.find t.cache key);
        s.s_current <- Some (key, obj);
        obj
      in
      let decision =
        match s.s_stream with
        | None ->
            let stream = Stream.create ~config:(stream_config t req.Protocol.options) env program in
            s.s_stream <- Some stream;
            Stream.last stream
        | Some stream -> Stream.step stream program
      in
      (match s.s_current with Some (key, obj) -> absorb t key obj | None -> ());
      Metrics.incr (Lazy.force m_stream_decisions);
      if decision.Stream.d_slo_tripped then Metrics.incr (Lazy.force m_stream_slo_tripped);
      Metrics.incr (Lazy.force m_completed);
      Metrics.observe (Lazy.force h_latency) (now () -. job.admit_s);
      send job.conn (Protocol.stream_result ~id:req.Protocol.id ~session:name decision))

let reject t job ~code ~message =
  (match code with
  | Protocol.Shutdown -> Metrics.incr (Lazy.force m_rejected_shutdown)
  | Protocol.Deadline -> Metrics.incr (Lazy.force m_deadline_missed)
  | _ -> ());
  send job.conn (Protocol.error ~id:job.req.id ~code ~message);
  ignore t

let execute t job =
  match
    if Atomic.get t.draining then
      reject t job ~code:Protocol.Shutdown ~message:"daemon is draining; retry later"
    else if try_cached t job then ()
      (* answered from the warm store — deliberately before the deadline
         arithmetic below: a warm answer is free, so even a request whose
         deadline fully elapsed in the queue gets its result *)
    else begin
      let started_s = now () in
      let queued_s = started_s -. job.admit_s in
      let remaining = Option.map (fun d -> d -. queued_s) job.req.options.deadline_s in
      match remaining with
      | Some r when r <= 0. ->
          reject t job ~code:Protocol.Deadline
            ~message:
              (Printf.sprintf "deadline of %.3f s passed after %.3f s in queue"
                 (Option.get job.req.options.deadline_s) queued_s)
      | remaining ->
          send job.conn (Protocol.started ~id:job.req.id);
          if job.req.Protocol.session <> None then run_stream t job
          else run_request t job ~started_s ~remaining
    end
  with
  | () -> ()
  | exception Protocol.Bad_request msg ->
      Metrics.incr (Lazy.force m_malformed);
      send job.conn (Protocol.error ~id:job.req.id ~code:Malformed ~message:msg)
  | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception e ->
      (* the last net: nothing a request does may take a worker down *)
      Metrics.incr (Lazy.force m_internal_errors);
      send job.conn
        (Protocol.error ~id:job.req.id ~code:Internal ~message:(Printexc.to_string e))

let rec worker_loop t =
  Mutex.lock t.qlock;
  while Queue.is_empty t.queue && not (Atomic.get t.draining) do
    Condition.wait t.qcv t.qlock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.qlock (* draining and drained *)
  else begin
    let job = Queue.pop t.queue in
    Metrics.set (Lazy.force g_queue_depth) (float_of_int (Queue.length t.queue));
    Mutex.unlock t.qlock;
    execute t job;
    pending_decr job.conn;
    worker_loop t
  end

(* --- admission (handler threads) --- *)

let admit t conn req =
  Mutex.lock t.qlock;
  if Atomic.get t.draining then begin
    Mutex.unlock t.qlock;
    Metrics.incr (Lazy.force m_rejected_shutdown);
    send conn
      (Protocol.error ~id:req.Protocol.id ~code:Shutdown
         ~message:"daemon is draining; retry later")
  end
  else if Queue.length t.queue >= t.config.max_queue then begin
    Mutex.unlock t.qlock;
    Metrics.incr (Lazy.force m_rejected_overload);
    send conn
      (Protocol.error ~id:req.Protocol.id ~code:Overload
         ~message:
           (Printf.sprintf "admission queue full (%d queued); retry later"
              t.config.max_queue))
  end
  else begin
    pending_incr conn;
    (* The admitted event goes out before the job is published: a worker
       can otherwise pop the job and write "started" first, inverting
       the documented admitted -> started order on the wire.  The send
       happens outside qlock — a client that never reads its socket must
       only ever stall its own connection, not global admission.  (A
       concurrent admit can slip in during the write, so the queue may
       transiently overshoot max_queue by the number of in-flight
       admissions — bounded by the connection count.) *)
    let depth = Queue.length t.queue + 1 in
    Mutex.unlock t.qlock;
    Metrics.incr (Lazy.force m_requests);
    send conn (Protocol.admitted ~id:req.Protocol.id ~queue_depth:depth);
    Mutex.lock t.qlock;
    if Atomic.get t.draining then begin
      (* the drain won the race while we were writing: the job was never
         queued, so reject it like any other queued-but-unstarted work *)
      Mutex.unlock t.qlock;
      Metrics.incr (Lazy.force m_rejected_shutdown);
      send conn
        (Protocol.error ~id:req.Protocol.id ~code:Shutdown
           ~message:"daemon is draining; retry later");
      pending_decr conn
    end
    else begin
      Queue.push { req; conn; admit_s = now () } t.queue;
      Metrics.set (Lazy.force g_queue_depth) (float_of_int (Queue.length t.queue));
      Condition.signal t.qcv;
      Mutex.unlock t.qlock
    end
  end

(* Best-effort id recovery for the error event of an unparsable request. *)
let id_of_line line =
  match Json.of_string line with
  | Json.Obj _ as j -> (
      match Json.member "id" j with Some (Json.Str s) -> s | _ -> "")
  | _ -> ""
  | exception Json.Malformed _ -> ""

let process t conn line =
  match Protocol.parse_request line with
  | req -> admit t conn req
  | exception Protocol.Bad_request msg ->
      Metrics.incr (Lazy.force m_malformed);
      send conn (Protocol.error ~id:(id_of_line line) ~code:Malformed ~message:msg)

let handle t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line ->
        if String.trim line <> "" then process t conn line;
        loop ()
  in
  loop ();
  (* the client is done sending; answer every admitted job before
     tearing the connection down *)
  Mutex.lock conn.wlock;
  while conn.pending > 0 do
    Condition.wait conn.done_cv conn.wlock
  done;
  conn.alive <- false;
  Mutex.unlock conn.wlock;
  (* deregister before closing so drain never shutdowns a recycled fd *)
  Mutex.lock t.hlock;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.hlock;
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* --- accept loop --- *)

let join_handler h = match h.thread with Some th -> Thread.join th | None -> ()

let prune_handlers t =
  Mutex.lock t.hlock;
  let finished, live = List.partition (fun h -> h.finished) t.handlers in
  t.handlers <- live;
  Mutex.unlock t.hlock;
  List.iter join_handler finished

let spawn_handler t fd =
  let conn =
    {
      fd;
      oc = Unix.out_channel_of_descr fd;
      wlock = Mutex.create ();
      alive = true;
      pending = 0;
      done_cv = Condition.create ();
    }
  in
  let handler = { thread = None; finished = false } in
  Mutex.lock t.hlock;
  t.handlers <- handler :: t.handlers;
  t.conns <- conn :: t.conns;
  Mutex.unlock t.hlock;
  handler.thread <-
    Some
      (Thread.create
         (fun () ->
           (match handle t conn with
           | () -> ()
           | exception e ->
               t.config.log (Printf.sprintf "handler error: %s" (Printexc.to_string e)));
           handler.finished <- true)
         ());
  (* a connection that raced the drain flag would otherwise block its
     handler in input_line forever — force the EOF drain relies on *)
  if Atomic.get t.draining then
    try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.draining) then begin
      prune_handlers t;
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ -> spawn_handler t fd; loop ()
          | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK | ECONNABORTED), _, _)
            -> loop ())
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.config.socket_path with Sys_error _ -> ())

(* --- persistence --- *)

let persist t =
  match t.config.cache_path with
  | Some path when Cache_store.dirty t.cache -> begin
      match Cache_store.save t.cache path with
      | () ->
          t.config.log
            (Printf.sprintf "cache: persisted %d program(s), %d verdict(s) to %s"
               (Cache_store.programs t.cache)
               (Cache_store.verdict_count t.cache)
               path)
      | exception Sys_error msg -> t.config.log (Printf.sprintf "cache save failed: %s" msg)
    end
  | _ -> ()

(* --- drain --- *)

let draining t = Atomic.get t.draining

let drain t =
  if not (Atomic.exchange t.draining true) then begin
    t.config.log "draining: rejecting new work, finishing in-flight requests";
    (* wake idle workers so they can observe the flag and exit *)
    Mutex.lock t.qlock;
    Condition.broadcast t.qcv;
    Mutex.unlock t.qlock;
    (* unblock handler threads stuck in input_line: shutting down the
       receive side delivers EOF without touching in-flight writes *)
    Mutex.lock t.hlock;
    let conns = t.conns in
    Mutex.unlock t.hlock;
    List.iter
      (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns
  end

let timer_loop t =
  let tick = 0.2 in
  let acc = ref 0. in
  while not (Atomic.get t.draining) do
    Thread.delay tick;
    (* signal handlers only flip this atomic; the actual drain — which
       takes locks — runs here, in a plain thread *)
    if Atomic.get t.drain_requested then drain t;
    acc := !acc +. tick;
    if !acc >= t.config.persist_every_s then begin
      acc := 0.;
      persist t
    end
  done

(* --- lifecycle --- *)

let start config =
  if config.workers < 1 then invalid_arg "Server.start: workers must be positive";
  if config.max_queue < 1 then invalid_arg "Server.start: max_queue must be positive";
  if config.max_sessions < 1 then invalid_arg "Server.start: max_sessions must be positive";
  (* a broken client connection must be an EPIPE result, not a fatal signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match
     Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listen_fd 64
   with
  | () -> ()
  | exception e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e);
  let cache = Cache_store.create ~max_entries:config.cache_entries () in
  (match config.cache_path with
  | Some path -> begin
      match Cache_store.load_if_exists cache path with
      | () ->
          if Cache_store.programs cache > 0 then
            config.log
              (Printf.sprintf "cache: restored %d program(s), %d verdict(s) from %s"
                 (Cache_store.programs cache) (Cache_store.verdict_count cache) path)
      | exception (Sys_error _ | Kf_search.Snapshot.Malformed _) ->
          (* a corrupt cache file only costs warmth *)
          config.log (Printf.sprintf "cache: ignoring unreadable %s" path)
    end
  | None -> ());
  let t =
    {
      config;
      listen_fd;
      qlock = Mutex.create ();
      qcv = Condition.create ();
      queue = Queue.create ();
      draining = Atomic.make false;
      drain_requested = Atomic.make false;
      hlock = Mutex.create ();
      handlers = [];
      conns = [];
      cache;
      slock = Mutex.create ();
      sessions = Hashtbl.create 8;
      session_tick = 0;
      accept_thread = None;
      worker_domains = [];
      timer_thread = None;
    }
  in
  (* one long-lived loop per worker domain, all taking jobs from the
     admission queue *)
  t.worker_domains <- List.init config.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t.timer_thread <- Some (Thread.create (fun () -> timer_loop t) ());
  config.log (Printf.sprintf "listening on %s (%d workers, queue %d)" config.socket_path
     config.workers config.max_queue);
  t

let request_drain t = Atomic.set t.drain_requested true

let install_signal_handlers t =
  let request _ = Atomic.set t.drain_requested true in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle request) with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let wait t =
  let join = function Some th -> Thread.join th | None -> () in
  join t.accept_thread;
  (* accept loop exits only once draining; workers drain the queue *)
  let domains = t.worker_domains in
  t.worker_domains <- [];
  List.iter
    (fun d ->
      match Domain.join d with
      | () -> ()
      | exception e -> t.config.log (Printf.sprintf "worker error: %s" (Printexc.to_string e)))
    domains;
  join t.timer_thread;
  (* handlers: every job is answered by now, so they are only waiting on
     client EOF, which drain forced *)
  let rec join_handlers () =
    Mutex.lock t.hlock;
    let hs = t.handlers in
    t.handlers <- [];
    Mutex.unlock t.hlock;
    match hs with
    | [] -> ()
    | hs ->
        List.iter join_handler hs;
        join_handlers ()
  in
  join_handlers ();
  persist t;
  t.config.log "drained"

let stop t =
  drain t;
  wait t

let cache_programs t = Cache_store.programs t.cache
let cache_verdicts t = Cache_store.verdict_count t.cache
let cache_evictions t = Cache_store.evictions t.cache

let stream_sessions t =
  Mutex.lock t.slock;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.slock;
  n
