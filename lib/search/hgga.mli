(** Hybrid Grouping Genetic Algorithm (paper §III-C), adapted from
    Falkenauer's HGGA for bin packing.

    Genes are {e groups} (candidate new kernels), not kernel-to-group
    assignments: crossover injects whole groups from one parent into the
    other, eliminates the disrupted groups and repairs the orphans;
    mutation dissolves, ejects from, or merges groups.  All operators act
    through {!Grouping}'s absorbing merge, so every individual in the
    population respects the dependency constraints at all times — the
    adaptation the paper introduces so that "multivariate dependencies of
    original kernels in different sharing sets are not violated".

    An individual is its launch packs, kept in the order its operators
    produced them (the order is part of the random stream: mutation picks
    groups and members by position), its canonical plan key, encoded
    once when the individual is built and shared by dedup and
    evaluation, and its evaluation.  Operators never rebuild a partition
    from lists per step: each loads its parent into the domain's
    {!Grouping.Partition} scratch, works there in place, and returns
    lists for the child.  Lists appear in {!result}, in {!Snapshot} and
    at the CLI.

    The search can run as an {e island model}: the population is sharded
    into [islands] sub-populations that evolve in lockstep on their own
    pre-split generators and periodically exchange elite copies over a
    rotating ring.  Island steps are independent (the shared objective's
    caches are per-domain tables merged at generation barriers, and its
    verdicts are pure), so they are fanned
    out over [domains] domains — with the determinism contract
    that a {e fixed island count} yields bit-identical results for {e
    any} worker-domain count.

    The stop criterion is the paper's: no improvement of the incumbent for
    a configured number of generations (with a hard generation cap). *)

type params = {
  population_size : int;  (** total, across all islands *)
  max_generations : int;
  stall_generations : int;  (** stop after this many non-improving generations *)
  crossover_rate : float;
  mutation_rate : float;
  tournament_size : int;
  elite : int;  (** incumbents copied unchanged into each generation
                    (per island, capped at the island size - 1) *)
  seed : int;
  domains : int;
      (** domains the search runs on, the calling one included (the
          paper parallelizes its search with OpenMP; here OCaml 5
          domains).  With several islands each island step is one task
          of the fan-out; with a single island it is child construction
          that fans out, fresh children first.  Results are identical
          for any domain count. *)
  islands : int;
      (** number of sub-populations (default 1: the classic panmictic
          GA).  The population is split as evenly as possible; each
          island needs at least 2 individuals. *)
  migration_interval : int;
      (** generations between ring migrations (ignored with one island) *)
  migration_size : int;
      (** elite copies each island emits per migration (0 disables
          migration; clamped to the island size - 1) *)
  horizontal : bool;
      (** search the composed-plan space: individuals may pack
          several concurrently resident planes into one launch, and
          mutation gains pack / flip / plane-move operators.  Off by
          default; with [false] every individual is single-plane packs
          through the same evaluator, and results are bit-identical to
          the historical vertical-only search.  Mutually exclusive with
          a device portfolio. *)
}

val default_params : params
(** population 60, max 400 generations, stall 60, crossover 0.85,
    mutation 0.25, tournament 3, elite 2, seed 42, 1 domain, 1 island,
    migration every 10 generations, 2 migrants. *)

val paper_params : params
(** The paper's Table VI setting: population 100, 2000 generations (stall
    disabled by setting it equal to the cap). *)

type stop_reason =
  | Converged  (** stall criterion met (the paper's stop rule) *)
  | Generation_cap
  | Evaluation_budget
  | Wall_budget
  | Fault_overload
      (** the observed per-evaluation fault rate crossed the budget's
          threshold — the search degraded to best-so-far *)
  | Interrupted
      (** an external [interrupt] callback asked the loop to stop (e.g.
          a draining server); the best-so-far plan is returned and a
          final checkpoint written, exactly as for a budget stop *)

val stop_reason_name : stop_reason -> string

type budget = {
  max_evaluations : int option;  (** stop once this many objective evaluations ran *)
  max_wall_s : float option;  (** stop after this much wall time *)
  max_fault_rate : float option;
      (** stop when {!Objective.fault_rate} reaches this value *)
  min_rate_evals : int;
      (** fault-rate is only trusted after this many evaluations, so a
          single early failure cannot abort the whole search *)
}

val unlimited : budget
(** No limits; [min_rate_evals = 50]. *)

type checkpoint = {
  path : string;  (** snapshot file, overwritten at each checkpoint *)
  every : int;  (** checkpoint every this many generations *)
}

type progress = {
  p_generation : int;
  p_best_cost : float;  (** incumbent cost after this generation *)
  p_stall : int;
  p_evaluations : int;  (** cumulative, resume-inclusive *)
  p_wall_s : float;  (** cumulative, resume-inclusive *)
}
(** One per-generation observation handed to [on_generation] — the live
    progress feed of the serve daemon.  Purely observational. *)

type stats = {
  generations : int;  (** generations actually run *)
  evaluations : int;  (** objective evaluations (Table VI "Total #
                          Evaluations") *)
  wall_time_s : float;
  best_cost : float;
  improvement_history : (int * float) list;
      (** (generation, incumbent cost) at each improvement, oldest first *)
  stop : stop_reason;  (** why the search ended *)
  faults : Objective.fault_stats;
      (** snapshot of the objective's fault accounting (all zero when no
          guard is installed) *)
  group_cache : Objective.cache_stats;
      (** group-cache counters at the end of the run, cumulative across
          resumes (Snapshot v4 persists them) *)
  plan_cache : Objective.cache_stats;
      (** plan-level cache counters, cumulative across resumes like
          [group_cache] *)
}

type result = {
  groups : Grouping.groups;
  plan : Kf_fusion.Plan.t;
  cost : float;
  stats : stats;
}

val solve :
  ?params:params ->
  ?checkpoint:checkpoint ->
  ?resume_from:string ->
  ?budget:budget ->
  ?seed_plans:Grouping.groups list ->
  ?on_generation:(progress -> unit) ->
  ?interrupt:(unit -> bool) ->
  Objective.t ->
  result
(** Runs the GA and returns the best feasible plan found, after the
    profitability cleanup of constraint (1.1).

    {b Warm start.}  [seed_plans] injects in-memory prior plans (e.g. a
    repaired plan from the previous program version in the streaming
    path) into the initial population: the first slots of {e every}
    island hold the seeds (clamped to the island size - 1 so evolution
    always keeps at least one non-seed slot), the remaining slots are
    filled exactly as without seeds.  With [seed_plans = []] the run is
    bit-identical to the historical construction.  Seed plans are
    evaluated through the objective like any other individual: their
    cost contributes cache hits, not pre-seeded counters, so the
    returned per-run [evaluations]/[wall_time_s] count only the work
    this run actually did — seeding must {e not} be combined with
    [resume_from] (which {e does} carry counters forward from the
    snapshot), and doing so raises [Invalid_argument].

    {b Island model.}  With [islands > 1] the population evolves as
    independent sub-populations in lockstep generations.  Every
    [migration_interval] generations each island sends copies of its
    [migration_size] best individuals to the island [offset] positions
    ahead on the ring, replacing the receiver's worst; the offset rotates
    (1, 2, ..., islands-1, 1, ...) with a persisted cursor so repeated
    migrations reach every island.  Each island draws from its own
    generator, split from the master seed in island order, and each
    island step reads only island-local state plus the pure objective
    caches — so for a fixed island count the result (plan, cost,
    improvement history and evaluation count) is bit-identical for any
    [domains] value.

    [on_generation] observes each completed generation (see {!progress});
    [interrupt] is polled once per generation boundary — returning [true]
    stops the loop with {!Interrupted}, returning the best-so-far plan
    after a forced final checkpoint, so a draining server can retire
    in-flight searches promptly without losing their progress.  Neither
    callback can alter the search result.

    [checkpoint] periodically serializes the full search state (see
    {!Snapshot}) so a killed run can continue, and one final snapshot is
    always written when the loop stops (budget, convergence or cap), so
    at most the in-flight generation is ever lost; [resume_from] restores
    such a snapshot — the resumed search's plan, cost bits and
    improvement history are bit-identical to the uninterrupted one's for
    equal [params].  Its evaluation count is not: the resumed objective
    starts with a cold cache, so its generations count again groups the
    first segment already evaluated.  [budget] bounds evaluations,
    wall time and tolerated fault rate; when a budget trips, the
    incumbent plan is returned (degrading to the {!Greedy} baseline, then
    to the identity plan, if no feasible individual exists).  Budgets and
    the returned stats are cumulative across resume: the snapshot's
    evaluation count, wall time and fault record are carried forward, so
    [max_evaluations]/[max_wall_s] cap the whole logical run rather than
    each segment.  Re-costing the restored individuals repeats
    evaluations and cache probes the snapshot already counts, and they
    are not counted again: a resume that runs no generation reports the
    snapshot's evaluation count and cache counters.

    With a [Kf_obs.Trace] sink attached, the solver emits one structured
    ["generation"] event per generation (best/mean cost, population
    diversity, stall, cumulative evaluations, fault counts, whether a
    checkpoint was written), one ["island"] instant per island per
    generation when running multiple islands, a ["migration"] instant per
    ring exchange, an instant per checkpoint write, and a final ["stop"]
    event; with tracing disabled none of the derived quantities are
    computed.

    @raise Invalid_argument if the population is smaller than 2, the
    island/migration parameters are out of range (fewer than 2
    individuals per island, [migration_interval < 1],
    [migration_size < 0], [domains < 1]), or the snapshot does not match
    [params] (different seed, population size, island count, or program).
    @raise Sys_error / [Snapshot.Malformed] on unreadable or corrupt
    snapshot files. *)

type portfolio_result = {
  primary : result;  (** the ordinary single-device search result *)
  devices : Kf_gpu.Device.t array;
      (** primary device first, then the portfolio devices in
          configuration order; [front] cost vectors and
          [best_per_device] are index-aligned with this array *)
  front : Objective.pareto_entry list;
      (** cross-device Pareto front over every vertical plan the search
          evaluated (see {!Objective.pareto_front}) *)
  best_per_device : Objective.pareto_entry array;
      (** for each device, the evaluated plan with the lowest projected
          total on that device (ties resolved to the front's
          deterministic order); [[||]] only if the front is empty *)
}

val solve_portfolio :
  ?params:params ->
  ?checkpoint:checkpoint ->
  ?resume_from:string ->
  ?budget:budget ->
  ?seed_plans:Grouping.groups list ->
  ?on_generation:(progress -> unit) ->
  ?interrupt:(unit -> bool) ->
  Objective.t ->
  portfolio_result
(** Runs {!solve} on the primary device, then builds the portfolio
    results from the plans it evaluated ({!Objective.pareto_front}): the
    search does no portfolio work, so its selection pressure, evaluation
    counts and returned [primary] plan are bit-identical to a plain
    {!solve} on the same objective.

    @raise Invalid_argument if the objective was created without a
    [portfolio] (see {!Objective.create}). *)
