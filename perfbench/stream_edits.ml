(* stream-edits: one streaming session (no SLO) over a seeded trace of
   kernel arrivals, edits and removals on a fixed Table V program.  Opening the
   session (version 0's full search) is the set-up; every later
   [Stream.step] is one decision.

   The trace is periodic, so the program keeps returning to version 0 —
   the phase loop of a JIT-compiled application.  That bounds the
   distinct (program, plan) pairs the oracle must replay. *)

module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Plan = Kf_fusion.Plan
module Hgga = Kf_search.Hgga
module Stream = Kf_search.Stream
module Pipeline = Kfuse.Pipeline
module Suite = Kf_workloads.Suite
module Rng = Kf_util.Rng

type op = Add of int | Remove of int | Edit of int

let pool_kernels = 24
let resident = 18

type trace = {
  base : Program.t;  (** the pool every version is cut from *)
  initial : int list;  (** resident kernels of version 0 *)
  ops : op array;  (** one period; [Edit k] toggles kernel k's edit *)
}

(* The pool is one fixed Table V point per [pool_seed].  A period of the
   trace is [loops] short excursions from version 0 and back, each drawn
   from the workload seed: a kernel arrives, a resident one departs, then
   the departed one returns and the arrival leaves again (so every
   version has 18 or 19 kernels); or one kernel is edited and reverted.
   Versions stay within two kernels of version 0, so each seed's trace
   costs about the same to follow. *)
let make_trace ~loops ~pool_seed ~seed () =
  let base =
    Suite.generate
      { Suite.default with Suite.kernels = pool_kernels; arrays = 2 * pool_kernels; seed = pool_seed }
  in
  let rng = Rng.create seed in
  let initial = List.init resident Fun.id in
  let absent = List.init (pool_kernels - resident) (fun i -> resident + i) in
  let loop _ =
    if Rng.int rng 3 = 0 then
      let k = Rng.choose_list rng initial in
      [ Edit k; Edit k ]
    else
      let a = Rng.choose_list rng absent and r = Rng.choose_list rng initial in
      [ Add a; Remove r; Add r; Remove a ]
  in
  { base; initial; ops = Array.of_list (List.concat (List.init loops loop)) }

let bump k = { k with Kernel.extra_flops_per_site = k.Kernel.extra_flops_per_site +. 9. }

(* The program after the first [i] ops (taken cyclically). *)
let version trace i =
  let resident = ref trace.initial and edited = ref [] in
  for j = 0 to i - 1 do
    match trace.ops.(j mod Array.length trace.ops) with
    | Add k -> resident := k :: !resident
    | Remove k -> resident := List.filter (( <> ) k) !resident
    | Edit k ->
        edited := if List.mem k !edited then List.filter (( <> ) k) !edited else k :: !edited
  done;
  let base = List.fold_left (fun p k -> Program.edit_kernel p k bump) trace.base !edited in
  Program.restrict base (List.sort compare !resident)

(* The library's stream configuration (default search seeds), no SLO. *)
let config = { Stream.default_config with Stream.slo_s = None }

(* The session's environment: [Pipeline.stream_env], with a span around
   each layer call and the last objective kept for its counters. *)
type session = {
  trace : trace;
  mutable stream : Stream.t option;
  mutable decision : int;
  mutable parent : int;
  mutable last_obj : Kf_search.Objective.t option;
  mutable steps : int;  (** versions decided after version 0 *)
}

let env s program =
  let span name f = Spans.within ~decision:s.decision ~parent:s.parent name (fun _ -> f ()) in
  let ctx = span "pipeline.prepare" (fun () -> Pipeline.prepare ~device:Common.device program) in
  let obj = span "pipeline.objective" (fun () -> Pipeline.objective ctx) in
  s.last_obj <- Some obj;
  obj

let open_session trace =
  let s = { trace; stream = None; decision = -1; parent = -1; last_obj = None; steps = 0 } in
  let t0 = Common.now () in
  s.stream <- Some (Stream.create ~config (env s) (version trace 0));
  (s, Common.now () -. t0)

let rung_failure (d : Stream.decision) =
  match d.Stream.d_rung with
  | Stream.Greedy_repair -> Some "greedy-repair rung"
  | Stream.Full_search | Stream.Repair_search -> Common.stop_failure d.Stream.d_stop

let step ~traced s =
  let stream = Option.get s.stream in
  let prev_program = Stream.program stream in
  let prev_groups = (Stream.last stream).Stream.d_groups in
  let program = version s.trace (s.steps + 1) in
  let id = Common.next_decision_id () in
  s.decision <- id;
  let t0 = Common.now () in
  let d =
    Spans.within ~decision:id "decision" (fun root ->
        Spans.within ~decision:id ~parent:root "stream.step" (fun step_id ->
            s.parent <- step_id;
            Stream.step stream program))
  in
  let wall = Common.now () -. t0 in
  s.steps <- s.steps + 1;
  if traced then begin
    let obj = Option.get s.last_obj in
    Common.Counters.add_objective obj;
    Common.Counters.add "stream.changed" (float_of_int d.Stream.d_changed);
    Common.Counters.add "stream.reused" (float_of_int d.Stream.d_reused_groups);
    (* the diff and the warm-start mapping, timed again on their own
       after the decision so the decision's wall time is untouched *)
    let delta =
      Spans.within ~decision:id "stream.diff" (fun _ -> Stream.diff prev_program program)
    in
    ignore
      (Spans.within ~decision:id "stream.warm_plan" (fun _ ->
           Stream.warm_plan obj delta ~prev:prev_groups ~n:(Program.num_kernels program)))
  end;
  let plan = Plan.of_groups ~n:(Program.num_kernels program) d.Stream.d_groups in
  {
    Common.d_id = id;
    d_kind = "step";
    d_slot = Printf.sprintf "v%d" d.Stream.d_version;
    d_wall_s = wall;
    d_digest =
      Common.digest ~plan ~cost:d.Stream.d_cost ~evaluations:d.Stream.d_evaluations
        ~rung:(Stream.rung_name d.Stream.d_rung);
    d_failure = rung_failure d;
    d_pair = Some (program, plan);
  }

(* Steps until [`Seconds] of deciding have passed, or [`Count] steps.
   [between] runs after each step; its time is not counted. *)
let pass ?(between = ignore) ~traced ~limit s =
  let t0 = Common.now () and outside = ref 0. in
  let acc = ref [] and n = ref 0 in
  let continue_ () =
    match limit with
    | `Seconds sec -> Common.now () -. t0 -. !outside < sec
    | `Count c -> !n < c
  in
  while continue_ () do
    acc := step ~traced s :: !acc;
    incr n;
    let t = Common.now () in
    between ();
    outside := !outside +. (Common.now () -. t)
  done;
  List.rev !acc
