(* serve-mixed: an in-process [Kf_serve.Server] (2 worker domains, a
   queue no closed loop can fill) driven by 2 closed-loop client
   connections.  Each client repeats a fixed script of three kinds of
   request: cold one-shot requests carrying a fresh inline .kf program,
   exact repeats of programs the warm store already answers, and steps
   of the client's streaming session.  The daemon starts from a cache
   file that an untimed priming daemon persisted. *)

module Json = Kf_obs.Json
module Program = Kf_ir.Program
module Plan = Kf_fusion.Plan
module Server = Kf_serve.Server
module Client = Kf_serve.Client
module Suite = Kf_workloads.Suite
module Rng = Kf_util.Rng

let clients = 2
let primed_cache = Common.out_path "serve-primed.cache"

(* Socket and cache file of a daemon; set-up samples taken while the
   measured daemon is up use a second name. *)
let socket name = Common.out_path (name ^ ".sock")
let live_cache name = Common.out_path (name ^ ".cache")

type kind = Cold | Repeat | Session

(* Per cycle: one cold request, two repeats, three session steps.  The
   median request is then a session step and the tail a cold search; a
   warm-store read takes a few milliseconds, too little to measure
   steadily against this host's noise, so repeats show in
   [decisions_per_s] and in the serve.* layer metrics. *)
let script = [| Cold; Repeat; Session; Repeat; Session; Session |]

(* No program is shared between the clients (a shared one would make
   the warm store's answer depend on which client came first), so each
   client's decisions depend only on its own script. *)
type client_inputs = {
  c : int;
  seed : int;  (** search seed sent with every one-shot request *)
  cold_base : int;
  repeats : Program.t array;  (** the programs the priming daemon answered *)
  session : Stream_edits.trace;
}

let suite_program ~seed =
  Suite.generate { Suite.default with Suite.kernels = 16; arrays = 32; seed }

let inputs ~seed =
  let rng = Rng.create seed in
  let cold_base = Rng.int rng 1_000_000 in
  Array.init clients (fun c ->
      {
        c;
        seed = Rng.int rng 1_000_000;
        cold_base;
        repeats = Array.init 2 (fun j -> suite_program ~seed:(cold_base - 1 - (clients * j) - c));
        session =
          Stream_edits.make_trace ~loops:3 ~pool_seed:(1 + c)
            ~seed:(Rng.int rng 1_000_000) ();
      })

(* How many requests of [kind] come before request [i] of a script. *)
let ordinal kind i =
  let per_cycle = Array.fold_left (fun acc k -> if k = kind then acc + 1 else acc) 0 script in
  let within = ref 0 in
  for j = 0 to (i mod Array.length script) - 1 do
    if script.(j) = kind then incr within
  done;
  (i / Array.length script * per_cycle) + !within

(* Request [i] of a client's script: its kind and program. *)
let request_program ci i =
  match script.(i mod Array.length script) with
  | Cold -> (Cold, suite_program ~seed:(ci.cold_base + (clients * ordinal Cold i) + ci.c))
  | Repeat -> (Repeat, ci.repeats.(ordinal Repeat i mod Array.length ci.repeats))
  | Session -> (Session, Stream_edits.version ci.session (ordinal Session i))

let request_json ci ~id kind text =
  match kind with
  | Session -> Client.request ~id ~session:(Printf.sprintf "session-%d" ci.c) ~program:text ()
  | Cold | Repeat ->
      Client.request ~id ~program:text ~options:[ ("seed", Json.Int ci.seed) ] ()

(* The warm store keeps the server's default LRU bound (64 programs), so
   its size, and the heap, stop growing with the number of answers.  A
   program a client comes back to (a repeat, a version its session
   revisits) is touched again before 64 other programs are, so eviction
   only drops cold programs, which are never asked for twice, and no
   answer depends on it. *)
let config name =
  {
    (Server.default ~socket_path:(socket name)) with
    Server.workers = 2;
    max_queue = 64;
    cache_path = Some (live_cache name);
    persist_every_s = 5.;
  }

let copy_file src dst =
  let ic = open_in_bin src in
  let s = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let field name conv j = Option.bind (Json.member name j) conv

(* One request, timed from send to its terminal event.  Its layer spans
   wrap the client's waits for the admitted, started and terminal
   events: admission, queueing and execution. *)
let exchange conn ci i =
  let kind, program = request_program ci i in
  let id = Common.next_decision_id () in
  let rid = Printf.sprintf "c%d-%d" ci.c i in
  let request = request_json ci ~id:rid kind (Kf_ir.Program_io.print program) in
  let finished = ref false and terminal = ref None in
  (* events up to one of kind [until], or to the terminal one *)
  let rec await until =
    if not !finished then
      match Client.next_event conn with
      | None -> finished := true
      | Some ev -> (
          match Client.event_kind ev with
          | Some ("result" | "error") ->
              finished := true;
              terminal := Some ev
          | k when k = until && until <> None -> ()
          | _ -> await until)
  in
  let t_send = Common.now () in
  Spans.within ~decision:id "decision" (fun root ->
      let phase name f = Spans.within ~decision:id ~parent:root name (fun _ -> f ()) in
      phase "serve.admit" (fun () ->
          Client.send conn request;
          await (Some "admitted"));
      phase "serve.queue" (fun () -> await (Some "started"));
      phase "serve.exec" (fun () -> await None));
  let t_end = Common.now () in
  let terminal = !terminal in
  let n = Program.num_kernels program in
  let failure, digest, pair =
    match terminal with
    | None -> (Some "connection closed", "", None)
    | Some ev when Client.event_kind ev = Some "error" ->
        let code = Option.value (field "code" Json.to_string_opt ev) ~default:"?" in
        (Some ("error " ^ code), "", None)
    | Some ev ->
        let groups =
          Option.value ~default:[]
            (Option.map
               (List.map (fun g ->
                    List.filter_map Json.to_int_opt (Option.value ~default:[] (Json.to_list_opt g))))
               (field "groups" Json.to_list_opt ev))
        in
        let cost = Option.value (field "cost" Json.to_float_opt ev) ~default:nan in
        let evaluations = Option.value (field "evaluations" Json.to_int_opt ev) ~default:(-1) in
        let stop = Option.value (field "stop" Json.to_string_opt ev) ~default:"?" in
        let rung = Option.value (field "rung" Json.to_string_opt ev) ~default:"-" in
        let plan = Plan.of_groups ~n groups in
        let failure =
          match (stop, rung) with
          | _, "greedy-repair" -> Some "greedy-repair rung"
          | ("converged" | "generation-cap" | "cached"), _ -> None
          | s, _ -> Some ("search stopped on " ^ s)
        in
        if Kf_obs.Trace.enabled () then begin
          if stop = "cached" then Common.Counters.add "serve.cached" 1.;
          if kind <> Session then Common.Counters.add "serve.oneshot" 1.
        end;
        ( failure,
          Common.digest ~plan ~cost ~evaluations ~rung:(if stop = "cached" then "cached" else rung),
          Some (program, plan) )
  in
  {
    Common.d_id = id;
    d_kind = (match kind with Cold -> "cold" | Repeat -> "repeat" | Session -> "session");
    d_slot = rid;
    d_wall_s = t_end -. t_send;
    d_digest = digest;
    d_failure = failure;
    d_pair = pair;
  }

type daemon = { server : Server.t; conns : Client.t array }

let start ?(name = "serve") () =
  copy_file primed_cache (live_cache name);
  let t0 = Common.now () in
  let server = Server.start (config name) in
  let conns = Array.init clients (fun _ -> Client.connect_retry (socket name)) in
  ({ server; conns }, Common.now () -. t0)

let stop d =
  Array.iter Client.close d.conns;
  Server.stop d.server

(* The priming daemon answers every client's repeat programs once and
   persists its warm store on shutdown.  It runs in a child process, so
   that its heap is no part of the measured process's peak. *)
let prime inputs =
  if Sys.file_exists primed_cache then Sys.remove primed_cache;
  let answer_repeats () =
    let server = Server.start { (config "serve") with Server.cache_path = Some primed_cache } in
    let workers =
      Array.map
        (fun ci ->
          Thread.create
            (fun () ->
              let conn = Client.connect_retry (socket "serve") in
              Array.iteri
                (fun j p ->
                  let id = Printf.sprintf "prime-%d-%d" ci.c j in
                  Client.send conn (request_json ci ~id Repeat (Kf_ir.Program_io.print p));
                  ignore (Client.wait_terminal conn ~id))
                ci.repeats;
              Client.close conn)
            ())
        inputs
    in
    Array.iter Thread.join workers;
    Server.stop server
  in
  flush_all ();
  match Unix.fork () with
  | 0 -> Unix._exit (match answer_repeats () with () -> 0 | exception _ -> 1)
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 when Sys.file_exists primed_cache -> ()
      | _ -> failwith "serve-mixed: the priming daemon failed")

(* Both clients run their scripts concurrently, requests [first] to
   [first + requests - 1] each. *)
let pass ?(first = 0) d inputs ~requests =
  let results = Array.make clients [] in
  let threads =
    Array.mapi
      (fun c ci ->
        Thread.create
          (fun () -> results.(c) <- List.init requests (fun i -> exchange d.conns.(c) ci (first + i)))
          ())
      inputs
  in
  Array.iter Thread.join threads;
  results
