(** Streaming fusion: online decisions over an evolving kernel program.

    The paper searches once for a fixed program, but in the JIT-shaped
    scenario of {e Fusion of Array Operations at Runtime} (arXiv
    1601.05400) kernels arrive, disappear or are edited while the
    application runs, and each new program version needs a fusion plan
    within a latency SLO.  Consecutive versions share most of their
    kernels, so instead of re-searching from scratch this module {e
    diffs} the new version against the previous one (content
    fingerprints + longest-common-subsequence matching, so renumbering
    never breaks identity), maps the previous best plan through the
    diff, dissolves only the groups the edit actually invalidated, and
    warm-starts {!Hgga} from the repaired plan (via [seed_plans]).  The
    per-group signature caches then make re-evaluating the untouched
    groups a single cache fill shared by the whole population.

    Group {e verdicts} are never transferred across versions: convexity
    (paper Eq. 1.3) is a property of the whole order-of-execution graph,
    so a group that was feasible in version [v] can be infeasible in
    [v+1] even when its members are untouched.  Reuse is plan-shaped
    (seed individuals) — every verdict is recomputed under the new
    program's objective, where the incremental caches make it cheap.

    {b SLO ladder.}  Each decision degrades gracefully under a deadline:
    full search (version 0) / repair search (later versions) → when the
    remaining budget is too small to be worth a GA, a deterministic
    greedy repair (the warm-mapped plan plus one hill-climbing pass);
    when the GA runs but its wall budget trips, its best-so-far plan is
    the answer.  With no SLO, decisions depend only on the seeds, so a
    fixed edit trace yields bit-identical decisions for any [domains]
    value (the {!Hgga} determinism contract, lifted to traces). *)

type env = Kf_ir.Program.t -> Objective.t
(** How the stream obtains an objective for each program version.
    [Kf_search] cannot see the simulator, so the caller (typically
    [Kfuse.Pipeline.stream_env]) supplies the prepare-and-measure
    glue.  The callback must be deterministic in the program. *)

type rung =
  | Full_search  (** version 0: no previous plan — ordinary {!Hgga.solve} *)
  | Repair_search  (** warm-started GA seeded with the repaired plan *)
  | Greedy_repair
      (** deadline too tight for a GA: the repaired warm plan after one
          deterministic refinement pass is the answer *)

val rung_name : rung -> string

type config = {
  params : Hgga.params;  (** full-search parameters (version 0) *)
  repair : Hgga.params;
      (** parameters for the per-edit repair searches — typically a
          smaller population and tighter stall, since the seeds start
          near the optimum *)
  slo_s : float option;  (** per-decision wall deadline; [None] = unlimited *)
  min_search_s : float;
      (** when the remaining deadline budget at search start is below
          this, skip the GA and take the {!Greedy_repair} rung *)
}

val config_of_params : Hgga.params -> config
(** [config_of_params p]: full searches run [p]; [repair] is [p] with
    the population, generation cap and stall halved (floored at 4, 50
    and 10); no SLO; [min_search_s = 0.010]. *)

val default_config : config
(** [config_of_params Hgga.default_params]. *)

type delta = {
  matched : (int * int) list;
      (** (old id, new id) pairs of content-identical kernels, in
          program order (an LCS, so matching is order-preserving) *)
  removed : int list;  (** old ids with no match (deleted or edited) *)
  added : int list;  (** new ids with no match (arrived or edited) *)
}

val diff : Kf_ir.Program.t -> Kf_ir.Program.t -> delta
(** Content-based diff: kernels are matched by a fingerprint of their
    full metadata (name, flops, registers, active fraction, and each
    access's mode / stencil / flops / array {e content}), never by id —
    {!Kf_ir.Program.restrict} renumbers ids, and identity must survive
    that.  An edited kernel appears as removed + added. *)

type decision = {
  d_version : int;  (** 0 for the initial program, +1 per edit *)
  d_rung : rung;
  d_groups : Grouping.groups;  (** the plan answered for this version *)
  d_cost : float;
  d_stop : Hgga.stop_reason;
      (** why the search rung ended ([Converged] for {!Greedy_repair},
          which has no stop criterion of its own) *)
  d_evaluations : int;
      (** objective evaluations this decision performed — exactly the
          fresh objective's counter, never pre-seeded (see the
          [seed_plans] contract in {!Hgga.solve}) *)
  d_wall_s : float;  (** wall time of the whole decision, env included *)
  d_changed : int;  (** kernels added + removed by this edit *)
  d_reused_groups : int;
      (** multi-member groups of the previous plan that mapped through
          the diff intact and stayed feasible — the warm capital *)
  d_slo_tripped : bool;
      (** the deadline forced the greedy rung or cut the GA short *)
  d_total_evaluations : int;  (** cumulative over the stream so far *)
  d_total_wall_s : float;  (** cumulative over the stream so far *)
}

type t
(** A live stream: current program, fingerprints, best plan, cumulative
    accounting.  Not thread-safe; the serve daemon serializes access
    per session. *)

val create : ?config:config -> env -> Kf_ir.Program.t -> t
(** Answers version 0 with a full search (rung {!Full_search}, SLO
    honored as a wall budget) and returns the live stream. *)

val step : t -> Kf_ir.Program.t -> decision
(** Answers the next program version: diff, warm-map, repair, search or
    greedy per the SLO ladder.  The new version may differ arbitrarily
    from the current one (any mix of additions, removals and edits);
    an {e identical} program is answered by re-searching with the
    previous plan as seed, which converges immediately. *)

val last : t -> decision
val decisions : t -> decision list  (** oldest first *)

val program : t -> Kf_ir.Program.t  (** current version's program *)

val version : t -> int
val total_evaluations : t -> int
val total_wall_s : t -> float

val warm_plan :
  Objective.t -> delta -> prev:Grouping.groups -> n:int -> Grouping.groups * int
(** The plan-mapping core, exposed for tests: map [prev] (over the old
    version's ids) through [delta] onto the new version's [n] kernels —
    unmatched members drop out, arrived kernels enter as singletons,
    multi-member groups that turned infeasible dissolve, and the result
    is re-repaired to schedulability and normalized.  Also returns the
    number of multi-member groups that survived intact (the
    [d_reused_groups] statistic). *)
