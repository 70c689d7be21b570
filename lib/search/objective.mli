(** Search objective: cost of a candidate grouping under a chosen
    performance model, with feasibility checking, memoization and
    evaluation counting.

    The paper's search minimizes Σ_j T(F_j) (Fig. 4, Eq. 1) where T is the
    projected runtime bound of each new kernel; singletons cost their
    measured runtime.  Feasibility implements the active-constraint
    pruning of §III-C: structural constraints (convexity 1.3, kinship 1.5)
    are checked first and resource constraints (1.6, 1.7) only for groups
    that pass, and every verdict is cached by group. *)

type model =
  | Proposed  (** the paper's codeless upper-bound projection (§IV) *)
  | Roofline
  | Simple
  | Mwp  (** code-representation comparator (GROPHECY-style) *)

type verdict = { feasible : bool; cost : float; orig_sum : float }
(** One cached fitness evaluation: feasibility under the active
    constraints, projected cost ([infinity] when infeasible), and the
    group's summed original runtimes. *)

type fault_stats = {
  mutable injected : int;  (** faults deliberately introduced by an injector *)
  mutable trapped : int;  (** exceptions caught at the evaluation boundary *)
  mutable corrupted : int;  (** verdicts sanitized (NaN / negative / corrupt) *)
  mutable retries : int;  (** retry attempts on transient failures *)
  mutable recovered : int;  (** transient failures that succeeded on retry *)
  mutable quarantined : int;  (** candidates assigned a penalty fitness *)
}
(** Per-candidate fault accounting maintained by a guard (see
    [Kf_robust.Guard]); all zero when no guard is installed. *)

val zero_faults : unit -> fault_stats
val copy_faults : fault_stats -> fault_stats

type guard = (int list -> verdict) -> int list -> verdict
(** A guard intercepts every cache-miss evaluation: it receives the raw
    evaluation function and the candidate group and must return a verdict
    (possibly after retrying, perturbing, or replacing a failure with a
    penalty).  The returned verdict is memoized. *)

type t

type cache_stats = { hits : int; misses : int; evictions : int; size : int }
(** Memo-table telemetry: lookup hits and misses over every call
    (singletons included), evictions (always 0: the tables are
    unbounded; the field is kept because checkpoints and the serve cache
    store it), and the current table size.  Every lookup resolves as exactly one hit
    or one miss — so summed over {!shard_stats}, [hits + misses] always
    equals the total number of probes.  Hit and miss counts are
    scheduling-dependent telemetry when several domains run
    concurrently (which domain's table answers a probe depends on which
    domain claimed which task); costs, plans and {!evaluations} are not. *)

type pareto_entry = { pf_plan : int list list; pf_costs : float array }
(** One plan on the cross-device Pareto front: canonical groups and its
    total projected cost per portfolio device (index-aligned with
    {!portfolio_devices}). *)

val create :
  ?model:model ->
  ?guard:guard ->
  ?faults:fault_stats ->
  ?portfolio:Kf_model.Inputs.t list ->
  Kf_model.Inputs.t ->
  t
(** Default model: [Proposed]; default guard: identity (no fault
    handling).  [faults] is the accounting record the guard shares with
    this objective so that solvers can surface it in their results.

    There is one evaluation path.  Group verdicts are keyed by canonical
    signatures ({!Kf_fusion.Plan.group_signature}) encoded in a
    per-domain arena ({!Kf_fusion.Plan.Sigbuf}); a plan-level cache sits
    above them ({!eval_plan}); singletons are answered from the measured
    runtimes; kinship neighbor sets are memoized ({!memos}).  The leaf
    evaluates each missed group over per-program features precomputed
    once into a {!Kf_model.Feature_arena}, allocating nothing but the
    verdict.  Its verdicts are bit-identical to building the fused
    kernel per candidate ([Fused.build]); the test suite keeps that
    construction as an oracle and installs it through [guard].

    The group and plan memo tables are {e per-domain}: each worker
    domain probes a shared read-only base table lock-free, falls back
    to its own private table, and records misses privately;
    {!merge_locals} folds the private tables into the base at generation
    barriers.  The hot path takes no lock and allocates no key on a hit.
    A key evaluated concurrently by several domains in one generation is
    evaluated by each (evaluation is pure) but merged — and counted —
    once.  Every group is evaluated canonically sorted and plan costs
    are summed in canonical group order, so costs never depend on member
    or group order.

    [portfolio] (default [[]]) lists additional devices' inputs (built
    over the {e same program value}).  The search never reads them: the
    evaluation path is the same with or without a portfolio, so costs,
    verdicts and evaluation counts are bit-identical.  After the search,
    {!pareto_front} and {!group_row} cost the plans it evaluated on
    every device through the shared arena (structural analysis once per
    group, then one resource check and model call per device). *)

val portfolio_active : t -> bool
(** Whether a multi-device portfolio was configured. *)

val portfolio_devices : t -> Kf_gpu.Device.t array
(** The device table rows and fronts are indexed by: the primary device
    at index 0 followed by the portfolio devices in configuration order
    ([[| primary |]] without a portfolio). *)

val group_row : t -> int list -> float array option
(** Per-device projected costs of one group ([None] without a
    portfolio; [infinity] entries where the group is infeasible on that
    device).  Index 0 is bit-identical to {!group_cost} under the
    default guard.  A multi-member group's row is computed on first
    demand and kept in one row table, which is not synchronized: call
    at a quiescent point (no search running on this objective). *)

val pareto_front : t -> pareto_entry list
(** The non-dominated plans among every distinct vertical plan this
    objective evaluated ({!eval_plan} callers — i.e. the search
    trajectory), under strict Pareto dominance of per-device total
    cost.  Built on each call from the merged plan table: a plan's
    per-device total sums its groups' rows ({!group_row}) in canonical
    group order.  Equal cost vectors are deduplicated to the
    lexicographically smallest canonical plan signature, and the front
    is sorted by cost vector — so the result is a deterministic function
    of the set of plans evaluated, independent of domain count, merge
    timing and device order.  Runs {!merge_locals}; call at a quiescent
    point.  Empty without a portfolio. *)

val rows_evaluated : t -> int
(** Distinct multi-member groups whose per-device rows have been
    computed, by {!pareto_front} or {!group_row}.  0 without a
    portfolio. *)

val alloc_per_eval : t -> float
(** Mean minor-heap words allocated per guarded evaluation — the
    hot-path health gauge behind the [objective.alloc_per_eval] metric.
    Sampled only while [Kf_obs.Metrics] is enabled; 0 with no samples. *)

val memos : t -> Struct_memo.memos
(** The execution DAG's adjacency arrays and the per-kernel kinship
    rows, precomputed once, for [Grouping]. *)

type scratch = ..
(** A per-domain slot for a search layer's reusable state, extended by
    the layer that owns it ({!Grouping.Partition} keeps its partition
    scratch here).  The slot lives in the objective's per-domain
    evaluation context, so the state dies with the objective. *)

type scratch += No_scratch

val scratch : t -> scratch
(** The calling domain's slot ([No_scratch] until set). *)

val set_scratch : t -> scratch -> unit

val struct_memos : t -> Struct_memo.memos option
(** [Some (memos t)], always.  The option is kept for callers written
    against the signature of earlier releases. *)

val inputs : t -> Kf_model.Inputs.t
val model : t -> model
val model_name : model -> string

val group_feasible : t -> int list -> bool
(** Constraints 1.3 + 1.5 + 1.6 + 1.7 for one group (singletons are always
    feasible). *)

val group_cost : t -> int list -> float
(** Projected runtime of the group's new kernel under the model;
    measured runtime for singletons; [infinity] when infeasible. *)

val group_profitable : t -> int list -> bool
(** Constraint 1.1: the projected runtime beats the group's original
    sum.  Singletons are vacuously profitable. *)

val verdict_of_sorted : t -> int array -> int -> verdict
(** [verdict_of_sorted t buf len] is the verdict of the group
    [buf.(0 .. len-1)], given strictly increasing: {!group_feasible},
    {!group_cost} and {!group_profitable} read off one cache probe,
    which allocates nothing on a hit. *)

(** {2 Plans}

    A plan is a list of launch packs ([int list list list]); a pack
    ([int list list]) is one launch.  A single-plane pack is an ordinary
    vertical group; several planes execute side by side as per-plane
    sub-grids of one horizontal launch.  A vertical plan is all
    single-plane packs.  A multi-plane pack's verdict lives in the same
    caches as group verdicts under a disjoint keyspace
    ([-3]-separated signatures), so it inherits the merge machinery,
    exactly-once accounting and domain-count determinism. *)

val eval_plan : t -> int list list list -> float
(** The one plan evaluator: the plan's total cost.  The canonical plan
    signature ({!Kf_fusion.Plan.Sigbuf.encode_plan}) probes the
    plan-level cache first (permutations of one plan share a signature),
    which stores only the total.  On a miss the total is summed straight
    off the signature, in canonical pack order, each pack probing the
    group cache with its slice of the key.  A one-kernel pack costs its
    measured runtime; a single-plane pack costs its group's projected
    runtime ({!group_cost}); a multi-plane pack costs its planes' costs
    composed through {!Kf_fusion.Horizontal} — the slowest plane in
    full, the rest attenuated by the residency overlap, scaled by the
    plane-dispatch divergence penalty — and [infinity] when the planes
    are not pairwise independent, any plane is infeasible, or the
    combined register/SMEM pressure cannot launch.  The total is
    bit-identical regardless of pack, plane or member order.  A
    plan-cache hit allocates nothing when its packs are canonical; a
    miss whose packs are all cached allocates its owned key and a
    constant, whatever the plan's size. *)

val plan_key : t -> int list list list -> int array
(** The plan's canonical signature ({!Kf_fusion.Plan.Sigbuf.encode_plan}),
    as an owned key: a caller that probes its own tables with the key
    and then evaluates the plan encodes it once. *)

val eval_key : t -> int array -> float
(** {!eval_plan} of the plan whose {!plan_key} is given.  On a miss the
    key itself is stored, so it must not be mutated afterwards. *)

val eval_encoded : t -> Kf_fusion.Plan.Sigbuf.t -> float
(** {!eval_plan} of the plan key currently encoded in a caller's
    buffer, probed in place. *)

val plan_cost : t -> int list list -> float
(** The total of {!eval_plan} on a vertical plan (every group its own
    pack); [infinity] if any group is infeasible. *)

val pack_profitable : t -> int list list -> bool
(** Constraint 1.1 lifted to packs: the pack's cost beats the sum of
    its members' original runtimes ({!group_profitable} for a
    single-plane pack). *)

val original_sum : t -> int list -> float

val merge_locals : t -> unit
(** Fold every domain's private memo tables (group verdicts and plan
    totals) into the shared read-only bases, count the distinct newly merged group keys
    as evaluations, and flush batched probe telemetry to
    [Kf_obs.Metrics].  Must only be called at a quiescent point — all
    helper domains parked at the pool's generation barrier (whose mutex
    handshake publishes their writes), or single-domain use. *)

val evaluations : t -> int
(** Number of objective-function evaluations attempted so far (cache
    misses on multi-member groups — the quantity of paper Table VI).
    Failed evaluations count: they are attempts, and the denominator of
    {!fault_rate}.  Each distinct key (group or multi-plane pack) counts
    exactly once: duplicates are collapsed at {!merge_locals}, so the
    count is exact at merge points and for single-domain use; between
    barriers it may transiently include cross-domain duplicates that the
    next merge collapses.  Evaluation budgets read at merge points
    therefore stop at the same point for any domain count. *)

val add_evaluations : t -> int -> unit
(** Seed the evaluation counter with work done before this objective
    existed (a resumed checkpoint), so {!evaluations} — and therefore
    evaluation budgets and reported stats — span the whole logical run.
    @raise Invalid_argument on a negative count. *)

val add_faults : t -> fault_stats -> unit
(** Add a prior run's fault counts into the live record (resume
    support, like {!add_evaluations}). *)

val cache_stats : t -> cache_stats
(** Group-cache counters aggregated over {!shard_stats}.  Singleton
    probes bypass the cache, so only multi-member traffic is counted.
    Includes counts seeded by {!add_cache_stats}. *)

val plan_cache_stats : t -> cache_stats
(** Plan-level cache counters.  Includes counts seeded by
    {!add_cache_stats}. *)

val add_cache_stats : t -> group:cache_stats -> plan:cache_stats -> unit
(** Seed the cache counters with a prior run's totals (resume support,
    like {!add_evaluations}): subsequent {!cache_stats} /
    {!plan_cache_stats} report cumulative hit/miss/eviction flows over
    the whole logical run.  The seeds' [size] fields are ignored — the
    prior process's tables are gone. *)

(** A program's group verdicts as one flat block: the warm-cache
    payload the serve daemon shares across requests and persists via
    [Snapshot.Cache].  Verdict [i] has the canonical signature
    [keys.(offs.(i)) .. keys.(offs.(i + 1) - 1)], cost [cost.(i)],
    original sum [orig_sum.(i)], and is feasible when
    [Bytes.get feasible i = '\001'].  Once built a block is never
    mutated, so stores and requests share it. *)
module Block : sig
  type t = {
    keys : int array;
    offs : int array;
    cost : float array;
    orig_sum : float array;
    feasible : Bytes.t;
  }

  val create : int -> words:int -> t
  (** [n] zeroed, infeasible verdicts over a [words]-int key arena. *)

  val empty : t
  val length : t -> int
end

val export_block : t -> Block.t
(** Every memoized verdict of the group cache, in its iteration order,
    after a {!merge_locals} (so call it at a quiescent point).  Verdicts
    are pure functions of (program, device, model), so the block is valid
    for any other objective built over the same inputs. *)

val seed_block : t -> Block.t -> unit
(** Pre-populate the group cache from an exported block; a key already
    cached keeps its verdict.  Seeded entries count as neither hits nor
    misses and, evaluation being pure, can only skip work.  Seeding a
    block of a {e different} (program, device, model) is undefined
    behavior; the daemon keys its store by a content digest to prevent
    it. *)

val shard_stats : t -> cache_stats array
(** Per-compartment group-cache counters: index 0 is the shared base
    (merged entries; it records no probes of its own), followed by one entry per domain-local table (its private
    probe counters and any entries not yet merged).  Both sizes and
    hit/miss flows sum to {!cache_stats} (minus any seeded counts). *)

val num_shards : t -> int
(** Number of group-cache compartments currently in use: [1 + ] the
    number of domains that have probed this objective. *)

val cache_hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before the first lookup. *)

val eval_time_s : t -> float
(** Wall time accumulated inside guarded model evaluations.  Only
    maintained while [Kf_obs.Metrics] is enabled (the disabled-mode hot
    path takes no clock readings); 0 otherwise. *)

val faults : t -> fault_stats
(** The live fault-accounting record (shared with the guard). *)

val fault_snapshot : t -> fault_stats
(** A consistent copy of {!faults}. *)

val fault_rate : t -> float
(** Fraction of evaluated candidates that ended quarantined
    ([quarantined / evaluations], so recovered transients do not count);
    0 before the first evaluation.  Always in [0,1]. *)

val pp_faults : Format.formatter -> fault_stats -> unit

