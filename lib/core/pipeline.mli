(** End-to-end kernel-fusion pipeline — paper Algorithm 1.

    [prepare] performs steps 1-2 (gather original-kernel metadata, build
    the dependency and order-of-execution graphs) plus the empirical
    baseline the models need (measuring every original kernel on the
    device — on this substrate, in the simulator).  [search] runs steps
    3-8 (the HGGA with the projection objective).  [apply] performs step 9
    (constructing the new kernels and the fused invocation sequence) and
    measures the result.  [run] chains all of it. *)

type context = {
  device : Kf_gpu.Device.t;
  program : Kf_ir.Program.t;
  meta : Kf_ir.Metadata.t;
  datadep : Kf_graph.Datadep.t;
  exec : Kf_graph.Exec_order.t;
  measured : Kf_sim.Measure.result array;  (** per original kernel *)
  inputs : Kf_model.Inputs.t;
  original_runtime : float;  (** Σ measured runtimes *)
}

val prepare :
  ?sync_points:int list -> device:Kf_gpu.Device.t -> Kf_ir.Program.t -> context
(** [sync_points] marks kernels after which the host synchronizes
    (PCIe transfer / MPI exchange); fusion never crosses them
    (paper §II-C). *)

val objective :
  ?model:Kf_search.Objective.model ->
  ?guard:Kf_search.Objective.guard ->
  ?faults:Kf_search.Objective.fault_stats ->
  ?domains:int ->
  ?portfolio:Kf_model.Inputs.t list ->
  context ->
  Kf_search.Objective.t
(** A fresh objective over the context (default model: the paper's).
    [guard]/[faults] install per-candidate fault isolation — see
    {!Kf_robust.Guard} — and [portfolio] enables per-device cost rows
    and the cross-device Pareto front, built after the search (see
    {!Kf_search.Objective.create}).  [domains] is accepted and unused:
    the objective's per-domain tables need no sizing, and the argument
    is kept so callers that pass their worker count still compile. *)

type outcome = {
  context : context;
  search : Kf_search.Hgga.result;
  fused : Kf_fusion.Fused_program.t;
  fused_measured : (Kf_fusion.Fused_program.unit_ * Kf_sim.Measure.result) list;
  fused_runtime : float;
  speedup : float;
}

val safe_speedup : original:float -> fused:float -> float
(** [original /. fused], guarded: 0 when either runtime is non-finite or
    [fused] is not strictly positive — the explicit "invalid measurement"
    marker, so degenerate measurements never poison reports with
    [inf]/[nan] speedups. *)

val apply :
  context -> Kf_search.Hgga.result -> outcome
(** Step 9: build and measure the fused program for a search result.
    Original kernels, as units or horizontal planes, keep their
    [context.measured] results.  [speedup] is computed with
    {!safe_speedup}. *)

val run :
  ?params:Kf_search.Hgga.params ->
  ?model:Kf_search.Objective.model ->
  ?sync_points:int list ->
  device:Kf_gpu.Device.t ->
  Kf_ir.Program.t ->
  outcome
(** The whole of Algorithm 1 with the given device and search settings. *)

type portfolio_outcome = {
  outcome : outcome;  (** the ordinary end-to-end outcome on [device] *)
  portfolio : Kf_search.Hgga.portfolio_result;
      (** per-device winners and the cross-device Pareto front *)
}

val portfolio :
  ?params:Kf_search.Hgga.params ->
  ?model:Kf_search.Objective.model ->
  ?sync_points:int list ->
  devices:Kf_gpu.Device.t list ->
  device:Kf_gpu.Device.t ->
  Kf_ir.Program.t ->
  portfolio_outcome
(** Algorithm 1 once, evaluated for a whole device portfolio: the search
    runs on [device] exactly as {!run} does (same plan, same evaluation
    counts), and afterwards every plan it evaluated is costed on each of
    [devices] through the shared feature arena — structural analysis
    once per group across devices instead of one search per device.
    Each extra device gets its own measured baseline
    ({!Kf_sim.Measure.program_results}); metadata and graphs are shared
    with the primary context. *)

val stream_env :
  ?model:Kf_search.Objective.model ->
  ?sync_points:int list ->
  device:Kf_gpu.Device.t ->
  unit ->
  Kf_search.Stream.env
(** The prepare-and-measure callback a {!Kf_search.Stream} needs: each
    program version is prepared ({!prepare}) and wrapped in a fresh
    objective ({!objective}).  Deterministic in the program, as the
    stream requires. *)

val stream :
  ?config:Kf_search.Stream.config ->
  ?model:Kf_search.Objective.model ->
  ?sync_points:int list ->
  device:Kf_gpu.Device.t ->
  Kf_ir.Program.t ->
  Kf_search.Stream.t
(** [Kf_search.Stream.create] over {!stream_env}: opens a streaming
    session on the initial program version (deciding version 0 with a
    full search). *)

val prepare_safe :
  ?sync_points:int list ->
  device:Kf_gpu.Device.t ->
  Kf_ir.Program.t ->
  (context, Kf_robust.Error.t) result
(** {!prepare} with the preparation stage's exceptions trapped and
    classified (see {!Kf_robust.Error.classify}).  Never raises except
    for fatal runtime conditions ([Out_of_memory], [Stack_overflow]). *)

val search_safe :
  ?params:Kf_search.Hgga.params ->
  ?checkpoint:Kf_search.Hgga.checkpoint ->
  ?resume_from:string ->
  ?budget:Kf_search.Hgga.budget ->
  ?seed_plans:Kf_search.Grouping.groups list ->
  ?on_generation:(Kf_search.Hgga.progress -> unit) ->
  ?interrupt:(unit -> bool) ->
  context ->
  Kf_search.Objective.t ->
  (Kf_search.Hgga.result, Kf_robust.Error.t) result
(** The search stage of {!run_safe} alone, over a caller-built objective
    (so the caller controls guarding, injection and cache seeding — the
    serve daemon's use case).  Exceptions are trapped and classified at
    the stage boundary, and an [Ok] result has already passed plan
    re-validation (degrading like {!run_safe} if needed). *)

val apply_safe :
  context ->
  Kf_search.Objective.t ->
  Kf_search.Hgga.result ->
  (outcome, Kf_robust.Error.t) result
(** The apply stage of {!run_safe} alone: builds and measures the fused
    program, degrading to the identity plan if the searched plan fails
    to build, and classifying exceptions at the stage boundary. *)

val run_safe :
  ?params:Kf_search.Hgga.params ->
  ?model:Kf_search.Objective.model ->
  ?sync_points:int list ->
  ?guard:Kf_robust.Guard.config ->
  ?inject:Kf_robust.Inject.config ->
  ?checkpoint:Kf_search.Hgga.checkpoint ->
  ?resume_from:string ->
  ?budget:Kf_search.Hgga.budget ->
  device:Kf_gpu.Device.t ->
  Kf_ir.Program.t ->
  (outcome, Kf_robust.Error.t) result
(** Fault-tolerant {!run}: every stage boundary traps and classifies
    exceptions; the objective is guarded (per-candidate quarantine,
    bounded retries — [guard] overrides {!Kf_robust.Guard.default});
    [inject] enables deterministic fault injection for robustness
    testing; [checkpoint]/[resume_from]/[budget] are forwarded to
    {!Kf_search.Hgga.solve}.

    Any plan crossing the search/apply boundary is re-checked with
    [Plan.validate]; a violating plan degrades (offending groups
    dissolved, then the identity plan) instead of being trusted, so an
    [Ok] outcome always carries a validate-clean plan.  Fault accounting
    is in [outcome.search.stats.faults]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human-readable summary: kernel counts before/after, search stats,
    speedup. *)
