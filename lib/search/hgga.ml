module Rng = Kf_util.Rng
module Pool = Kf_util.Pool
module Inputs = Kf_model.Inputs
module Program = Kf_ir.Program
module Sig_tbl = Struct_memo.Sig_tbl
module Plan = Kf_fusion.Plan
module Sigbuf = Plan.Sigbuf

type params = {
  population_size : int;
  max_generations : int;
  stall_generations : int;
  crossover_rate : float;
  mutation_rate : float;
  tournament_size : int;
  elite : int;
  seed : int;
  domains : int;
  islands : int;
  migration_interval : int;
  migration_size : int;
  horizontal : bool;
}

let default_params =
  {
    population_size = 60;
    max_generations = 400;
    stall_generations = 60;
    crossover_rate = 0.85;
    mutation_rate = 0.25;
    tournament_size = 3;
    elite = 2;
    seed = 42;
    domains = 1;
    islands = 1;
    migration_interval = 10;
    migration_size = 2;
    (* Off by default: the pinned plans (test_golden, the perfbench
       anchor digests, snapshots, byte-diff CI jobs) were recorded over
       the vertical-only space, and [horizontal = false] reproduces them
       bit-for-bit: the same evaluator, over single-plane packs. *)
    horizontal = false;
  }

let paper_params =
  {
    default_params with
    population_size = 100;
    max_generations = 2000;
    stall_generations = 2000;
  }

type stop_reason =
  | Converged
  | Generation_cap
  | Evaluation_budget
  | Wall_budget
  | Fault_overload
  | Interrupted

let stop_reason_name = function
  | Converged -> "converged"
  | Generation_cap -> "generation cap"
  | Evaluation_budget -> "evaluation budget exhausted"
  | Wall_budget -> "wall-time budget exhausted"
  | Fault_overload -> "fault rate above threshold"
  | Interrupted -> "interrupted"

type budget = {
  max_evaluations : int option;
  max_wall_s : float option;
  max_fault_rate : float option;
  min_rate_evals : int;
}

let unlimited =
  { max_evaluations = None; max_wall_s = None; max_fault_rate = None; min_rate_evals = 50 }

type checkpoint = { path : string; every : int }

(* One observation per completed generation, for live progress streaming
   (the serve daemon forwards these to clients).  Purely observational:
   the callback sees state the loop computed anyway, so installing one
   cannot change any result. *)
type progress = {
  p_generation : int;
  p_best_cost : float;
  p_stall : int;
  p_evaluations : int;
  p_wall_s : float;
}

type stats = {
  generations : int;
  evaluations : int;
  wall_time_s : float;
  best_cost : float;
  improvement_history : (int * float) list;
  stop : stop_reason;
  faults : Objective.fault_stats;
  group_cache : Objective.cache_stats;
  plan_cache : Objective.cache_stats;
}

type result = {
  groups : Grouping.groups;
  plan : Plan.t;
  cost : float;
  stats : stats;
}

(* An individual is its launch packs, their flattening into the
   vertical partition, its canonical plan key and its cost.  The key is
   encoded once, when the individual is built: dedup probes it and the
   evaluation reuses it.  A vertical search carries single-plane packs
   in the order its operators produced them, members in member order:
   [mutate] picks groups and [`Eject] members by list position, so both
   orders are part of the random stream.  Only the horizontal search
   hands canonical packs to [make_keyed].  The lists are the
   individual's immutable record of those orders; every operator loads
   them into the domain's partition scratch and works there. *)
type individual = {
  packs : int list list list;
  groups : Grouping.groups;  (* [List.concat packs] *)
  key : int array;  (* [Objective.plan_key] of [packs] *)
  cost : float;
}

let make_keyed obj packs key =
  { packs; groups = List.concat packs; key; cost = Objective.eval_key obj key }

let make_individual obj packs = make_keyed obj packs (Objective.plan_key obj packs)

let vpacks groups = List.map (fun g -> [ g ]) groups

(* A checkpointed individual is canonicalized exactly when the search
   that wrote it canonicalized its individuals, so both modes resume
   bit-identically. *)
let resumed_individual obj (snap : Snapshot.t) packs =
  make_individual obj (if snap.Snapshot.horizontal then Plan.canonical_comps packs else packs)

let tournament rng pop size =
  let best = ref (Rng.choose rng pop) in
  for _ = 2 to size do
    let challenger = Rng.choose rng pop in
    if challenger.cost < !best.cost then best := challenger
  done;
  !best

let mutate = Grouping.mutate ~ops:[ `Dissolve; `Eject; `Merge; `Merge ]

(* ---- horizontal-mode operators ------------------------------------------ *)

let packs_independent obj a b =
  Plan.planes_independent
    ~exec:(Objective.inputs obj).Inputs.exec
    (a @ b)

(* Re-attach pack structure after an operator rewrote the vertical
   partition: planes whose group survived intact keep their pack (a
   subset of a pairwise-independent set stays independent), changed or
   fresh groups start as singleton packs.  Falls back to all-vertical
   when the surviving packs no longer admit a launch order — unit
   refinement is not cycle-safe in general. *)
let reattach obj packs groups' =
  let groups = Array.of_list groups' in
  let owner = Array.make (Array.fold_left (fun acc g -> acc + List.length g) 0 groups) 0 in
  Array.iteri (fun i g -> List.iter (fun k -> owner.(k) <- i) g) groups;
  (* The group of [groups'] with exactly [g]'s members, or -1. *)
  let index g =
    let i = owner.(List.hd g) in
    if List.length groups.(i) = List.length g && List.for_all (fun k -> owner.(k) = i) g then i
    else -1
  in
  let available = Array.make (Array.length groups) true in
  let claim g =
    let i = index g in
    i >= 0 && available.(i)
    && begin
         available.(i) <- false;
         true
       end
  in
  let kept =
    List.filter_map
      (fun pack ->
        let survivors = List.filter claim pack in
        if List.length survivors >= 2 then Some survivors
        else begin
          (* Return lone survivors to the singleton pool. *)
          List.iter (fun g -> available.(index g) <- true) survivors;
          None
        end)
      packs
  in
  let singles = List.filteri (fun i _ -> available.(i)) groups' in
  let out = kept @ vpacks singles in
  if kept = [] || Grouping.packs_schedulable obj out then out else vpacks groups'

(* Crossover children inherit packs from both parents: any pack whose
   member groups all survived the crossover intact is kept, the
   receiving parent's packs claiming first (deterministically). *)
let inherit_packs obj (a : individual) (b : individual) groups' =
  reattach obj (a.packs @ b.packs) groups'

(* Horizontal-mode mutation: the vertical operators lifted through the
   flat partition, plus the pack-level moves that actually explore the
   new dimension — merge two independent packs into one horizontal
   launch ([`Hpack]), unpack one back to vertical launches ([`Hflip]),
   or move a single plane between compatible packs ([`Plane_move]). *)
let mutate_c obj rng packs =
  let multi = List.filter (fun c -> List.length c >= 2) packs in
  let ops =
    if List.length packs < 2 then [ `Vertical ]
    else if multi = [] then [ `Vertical; `Vertical; `Hpack; `Hpack ]
    else [ `Vertical; `Vertical; `Hpack; `Hflip; `Plane_move ]
  in
  match Rng.choose_list rng ops with
  | `Vertical ->
      let groups' = mutate obj rng (List.concat packs) in
      reattach obj packs groups'
  | `Hpack -> begin
      let a = Rng.choose rng (Array.of_list packs) in
      let candidates = List.filter (fun b -> b != a && packs_independent obj a b) packs in
      match candidates with
      | [] -> packs
      | _ ->
          let b = Rng.choose rng (Array.of_list candidates) in
          let out = (a @ b) :: List.filter (fun c -> c != a && c != b) packs in
          if Grouping.packs_schedulable obj out then out else packs
    end
  | `Hflip ->
      let victim = Rng.choose rng (Array.of_list multi) in
      List.concat_map (fun c -> if c == victim then vpacks c else [ c ]) packs
  | `Plane_move -> begin
      let victim = Rng.choose rng (Array.of_list multi) in
      let plane = Rng.choose rng (Array.of_list victim) in
      let rest_pack = List.filter (fun g -> g != plane) victim in
      let others = List.filter (fun c -> c != victim) packs in
      match List.filter (fun c -> packs_independent obj [ plane ] c) others with
      | [] -> rest_pack :: [ plane ] :: others
      | homes ->
          let home = Rng.choose rng (Array.of_list homes) in
          let out =
            rest_pack :: List.map (fun c -> if c == home then plane :: c else c) others
          in
          if Grouping.packs_schedulable obj out then out else packs
    end

(* Comp-aware profitability cleanup for the final answer: a multi-plane
   pack must beat the sum of its members' original runtimes or be
   unpacked into vertical launches; all vertical groups then pass the
   ordinary per-group rule. *)
let enforce_profitability_c obj packs =
  let hkeep, vgroups =
    List.fold_left
      (fun (hs, vs) c ->
        match c with
        | [ g ] -> (hs, g :: vs)
        | planes ->
            if Objective.pack_profitable obj planes then (planes :: hs, vs)
            else (hs, List.rev_append planes vs))
      ([], []) packs
  in
  let vgroups = Grouping.enforce_profitability obj (List.rev vgroups) in
  Plan.canonical_comps (List.rev hkeep @ vpacks vgroups)

(* One island: a population shard evolving on its own generator.  A
   generation step reads and writes only island-local state (plus the
   shared objective, whose verdicts are pure), so islands can be stepped
   on any worker domain in any order without changing the result. *)
type island_state = {
  mutable ipop : individual array;
  irng : Rng.t;
  isize : int;
  (* Plan-identity set for duplicate suppression, keyed by the
     individuals' canonical plan signatures.  Two plans share a
     signature exactly when they are equal as partitions (and packs), so
     dedup decisions match the historical signature-keyed hashtable.
     Owned by the island (cleared each generation, touched only by the
     domain currently stepping the island), NOT shared across domains: a
     cross-domain memo here would make dedup decisions depend on what
     other islands happened to generate first. *)
  dedup : unit Sig_tbl.t;
}

(* Advance one island by one generation and return its generation
   champion.  [incumbent_cost] is the global incumbent at the start of
   the generation — fixed before the fan-out, so the refine decision is
   identical for every island-to-domain assignment.  [child_pool] fans
   child construction of {e this} island over the persistent worker pool
   (used only in single-island mode; with several islands the
   parallelism is across islands instead). *)
let step_island obj params ~n ~incumbent_cost ?child_pool st =
  let sorted = Array.copy st.ipop in
  Array.sort (fun x y -> compare x.cost y.cost) sorted;
  let n_elites = min params.elite (st.isize - 1) in
  let elites = Array.to_list (Array.sub sorted 0 n_elites) in
  let n_children = st.isize - n_elites in
  (* Fresh blood keeps group building blocks flowing. *)
  let fresh = min n_children (if n <= 64 then max 1 (st.isize / 10) else 1) in
  (* Every child draws from its own pre-split RNG, so construction can
     fan out over domains without changing the result.  One batched call
     draws the whole generation's split material from the island stream
     in ascending child order — bit-compatible with the historical
     sequential splits. *)
  let child_rngs = Rng.split_n st.irng n_children in
  let snapshot = st.ipop in
  (* The one fork between the modes: each draws its own random
     numbers, through its own mutation operator and, after crossover,
     pack inheritance. *)
  let mutate_packs rng packs =
    if params.horizontal then mutate_c obj rng packs
    else vpacks (mutate obj rng (List.concat packs))
  in
  (* A child is its packs and their plan key; a child that neither
     crossed nor mutated reuses its parent's key. *)
  let build_child idx =
    let crng = child_rngs.(idx) in
    if idx >= n_children - fresh then begin
      let cp = vpacks (Grouping.random_plan obj crng n) in
      (cp, Objective.plan_key obj cp)
    end
    else begin
      let p1 = tournament crng snapshot params.tournament_size in
      let p2 = tournament crng snapshot params.tournament_size in
      let crossed = Rng.chance crng params.crossover_rate in
      let cp =
        if crossed then
          let g = Grouping.crossover obj crng ~receiver:p1.groups ~donor:p2.groups in
          if params.horizontal then inherit_packs obj p1 p2 g else vpacks g
        else p1.packs
      in
      if Rng.chance crng params.mutation_rate then begin
        let cp = mutate_packs crng cp in
        (cp, Objective.plan_key obj cp)
      end
      else (cp, if crossed then Objective.plan_key obj cp else p1.key)
    end
  in
  let raw_children =
    match child_pool with
    | Some pool when n_children >= 2 * Pool.size pool ->
        (* Work-stealing fan-out: each child index is an independent task
           with its own pre-split RNG, so any task-to-domain assignment
           builds the same children. *)
        let out = Array.make n_children ([], [||]) in
        Pool.run pool ~tasks:n_children (fun i -> out.(i) <- build_child i);
        out
    | _ -> Array.init n_children build_child
  in
  (* Duplicate suppression (sequential in both modes, so results match):
     a population of champion clones stops searching — crossover of
     identical parents is the identity.  The key is the whole plan
     signature, so in a horizontal search two plans equal as partitions
     but packed differently both survive — they are different points of
     the enlarged space.  The set holds the individuals' own keys. *)
  Sig_tbl.clear st.dedup;
  let seen key =
    Sig_tbl.mem_pre st.dedup ~buf:key ~len:(Array.length key) ~hash:(Plan.signature_hash key)
  in
  let seen_add key =
    if not (seen key) then Sig_tbl.add st.dedup key ~hash:(Plan.signature_hash key) ()
  in
  List.iter (fun ind -> seen_add ind.key) elites;
  let next = ref elites in
  Array.iteri
    (fun idx (child, key) ->
      let crng = child_rngs.(idx) in
      let rec unique attempts cp key =
        if (not (seen key)) || attempts = 0 then (cp, key)
        else begin
          let cp = mutate_packs crng cp in
          unique (attempts - 1) cp (Objective.plan_key obj cp)
        end
      in
      let cp, key = unique 3 child key in
      seen_add key;
      (* the key's packs are the canonical ones *)
      let cp = if params.horizontal then Sigbuf.decode key else cp in
      next := make_keyed obj cp key :: !next)
    raw_children;
  st.ipop <- Array.of_list !next;
  let gen_best =
    Array.fold_left
      (fun acc x -> if x.cost < acc.cost then x else acc)
      st.ipop.(0) st.ipop
  in
  (* Hybridization (the H of HGGA): hill-climb the generation's champion
     by kernel relocation and feed the refinement back into the island.
     On large instances the full neighborhood is too expensive per
     generation; a single final pass runs after the loop instead. *)
  let champion_has_multi = List.exists (fun pack -> List.length pack > 1) gen_best.packs in
  if n <= 64 && gen_best.cost < incumbent_cost -. 1e-15 && not champion_has_multi then begin
    (* Kernel relocation explores the vertical partition only; a champion
       with genuine horizontal packs is left as the operators built it
       (relocation would silently discard its composition). *)
    let refined =
      make_individual obj (vpacks (Grouping.local_refine obj gen_best.groups))
    in
    if refined.cost < gen_best.cost then begin
      st.ipop.(0) <- refined;
      refined
    end
    else gen_best
  end
  else gen_best

(* Ring migration: every island sends copies of its [count] best to the
   island [offset] positions ahead, replacing the receiver's worst.  All
   emigrants are collected before any island is modified, so delivery
   order cannot matter.  The offset rotates with the migration cursor
   (1, 2, ..., K-1, 1, ...) so repeated migrations reach every island,
   not just the fixed ring neighbor. *)
let migrate islands cursor ~count =
  let k = Array.length islands in
  let offset = 1 + (cursor mod (k - 1)) in
  let by_cost x y = compare x.cost y.cost in
  let emigrants =
    Array.map
      (fun st ->
        let sorted = Array.copy st.ipop in
        Array.sort by_cost sorted;
        Array.sub sorted 0 (min count (st.isize - 1)))
      islands
  in
  Array.iteri
    (fun i st ->
      let incoming = emigrants.((i - offset + k + k) mod k) in
      let sorted = Array.copy st.ipop in
      Array.sort by_cost sorted;
      let m = min (Array.length incoming) (st.isize - 1) in
      Array.blit incoming 0 sorted (st.isize - m) m;
      st.ipop <- sorted)
    islands

let solve ?(params = default_params) ?checkpoint ?resume_from ?(budget = unlimited)
    ?(seed_plans = []) ?on_generation ?interrupt obj =
  if params.population_size < 2 then invalid_arg "Hgga.solve: population too small";
  if seed_plans <> [] && resume_from <> None then
    invalid_arg
      "Hgga.solve: seed_plans and resume_from are mutually exclusive (a snapshot \
       already carries its population, and its evaluation counters are seeded \
       separately — mixing the two would double-count the seeds' evaluations)";
  if params.domains < 1 then invalid_arg "Hgga.solve: domains must be positive";
  if params.islands < 1 then invalid_arg "Hgga.solve: islands must be positive";
  if params.islands * 2 > params.population_size then
    invalid_arg "Hgga.solve: need at least 2 individuals per island";
  if params.migration_interval < 1 then
    invalid_arg "Hgga.solve: migration_interval must be positive";
  if params.migration_size < 0 then
    invalid_arg "Hgga.solve: migration_size must be non-negative";
  if params.horizontal && Objective.portfolio_active obj then
    invalid_arg
      "Hgga.solve: horizontal composition and device portfolios are mutually \
       exclusive (portfolio rows are keyed by vertical group signatures)";
  let start = Unix.gettimeofday () in
  let n = Program.num_kernels (Objective.inputs obj).Inputs.program in
  let identity = List.init n (fun k -> [ k ]) in
  let k_islands = params.islands in
  (* Island sizes: population split as evenly as possible, the first
     [population mod islands] islands one larger. *)
  let island_size i =
    (params.population_size / k_islands)
    + if i < params.population_size mod k_islands then 1 else 0
  in
  let evaluations_before = Objective.evaluations obj in
  let group_before = Objective.cache_stats obj and plan_before = Objective.plan_cache_stats obj in
  let islands, resumed =
    match resume_from with
    | None ->
        let master = Rng.create params.seed in
        (* Explicit loops (not [Array.init], whose application order is
           unspecified): each island's generator is split from the master
           in island order, and the initial plans draw from the island
           generator in slot order, so island streams and populations are
           fixed by (seed, island index) alone.  The master is never
           drawn from again. *)
        let g_idx = ref 0 in
        let dummy_island () =
          {
            ipop = [||];
            irng = master;
            isize = 0;
            dedup = Sig_tbl.create ~capacity:16 ();
          }
        in
        let islands = Array.make k_islands (dummy_island ()) in
        (* Warm seeds (in-memory prior plans, e.g. the streaming repair
           path): the first slots of every island hold them, so every
           island starts its evolution next to the previous optimum.
           Seed evaluations go through the objective like any other
           individual — the caller must NOT pre-seed the evaluation
           counter for them (that is the snapshot-resume path's job);
           per-run stats then count exactly the work this run did.
           With no seeds the construction below is bit-identical to the
           historical one. *)
        let seeds = Array.of_list seed_plans in
        List.iter
          (fun g ->
            List.iter
              (fun k ->
                if k < 0 || k >= n then
                  invalid_arg
                    (Printf.sprintf "Hgga.solve: seed plan references kernel %d of %d" k n))
              g)
          (List.concat seed_plans);
        for i = 0 to k_islands - 1 do
          let size = island_size i in
          let n_seeds = min (Array.length seeds) (size - 1) in
          let irng = Rng.split master in
          let ipop = Array.make size (make_individual obj (vpacks identity)) in
          for j = 0 to size - 1 do
            let idx = !g_idx in
            incr g_idx;
            if j < n_seeds then ipop.(j) <- make_individual obj (vpacks seeds.(j))
            else if not (i = 0 && j = n_seeds) then begin
              let attempts = n + (idx * n / params.population_size) in
              ipop.(j) <-
                make_individual obj
                  (vpacks (Grouping.random_plan obj irng ~merge_attempts:attempts n))
            end
          done;
          islands.(i) <-
            {
              ipop;
              irng;
              isize = size;
              dedup = Sig_tbl.create ~capacity:(2 * size) ();
            }
        done;
        (islands, None)
    | Some path ->
        let snap = Snapshot.load path in
        if snap.Snapshot.n <> n then
          invalid_arg
            (Printf.sprintf "Hgga.solve: snapshot is for a %d-kernel program, not %d"
               snap.Snapshot.n n);
        if snap.Snapshot.population_size <> params.population_size then
          invalid_arg
            (Printf.sprintf "Hgga.solve: snapshot population %d <> params population %d"
               snap.Snapshot.population_size params.population_size);
        if snap.Snapshot.seed <> params.seed then
          invalid_arg
            (Printf.sprintf "Hgga.solve: snapshot seed %d <> params seed %d"
               snap.Snapshot.seed params.seed);
        if List.length snap.Snapshot.islands <> k_islands then
          invalid_arg
            (Printf.sprintf "Hgga.solve: snapshot has %d islands, params ask for %d"
               (List.length snap.Snapshot.islands) k_islands);
        if snap.Snapshot.horizontal && not params.horizontal then
          invalid_arg
            "Hgga.solve: snapshot carries horizontal compositions; resume with \
             horizontal search enabled";
        (* Costs are recomputed: evaluation is pure, so the resumed
           individuals are bit-identical to the ones that were saved. *)
        let islands =
          Array.of_list
            (List.map
               (fun (isl : Snapshot.island) ->
                 let ipop =
                   Array.of_list (List.map (resumed_individual obj snap) isl.Snapshot.population)
                 in
                 {
                   ipop;
                   irng = Rng.of_state isl.Snapshot.rng_state;
                   isize = Array.length ipop;
                   dedup = Sig_tbl.create ~capacity:(2 * Array.length ipop) ();
                 })
               snap.Snapshot.islands)
        in
        (islands, Some snap)
  in
  (* Carry the accumulated wall time so `--budget-wall 60` means 60
     seconds total, not 60 seconds per resume. *)
  let base_wall =
    match resumed with Some snap -> snap.Snapshot.wall_time_s | None -> 0.
  in
  let wall_now () = base_wall +. (Unix.gettimeofday () -. start) in
  let all_individuals () = Array.concat (Array.to_list (Array.map (fun st -> st.ipop) islands)) in
  let best =
    ref
      (match resumed with
      | Some snap -> resumed_individual obj snap snap.Snapshot.best
      | None ->
          let all = all_individuals () in
          Array.fold_left (fun acc x -> if x.cost < acc.cost then x else acc) all.(0) all)
  in
  (* Newest improvement first; snapshots store oldest first. *)
  let history =
    ref
      (match resumed with
      | Some snap -> List.rev snap.Snapshot.history
      | None -> [ (0, !best.cost) ])
  in
  let stall = ref (match resumed with Some snap -> snap.Snapshot.stall | None -> 0) in
  let gen = ref (match resumed with Some snap -> snap.Snapshot.generation | None -> 0) in
  let migration_cursor =
    ref (match resumed with Some snap -> snap.Snapshot.migration_cursor | None -> 0)
  in
  let last_saved = ref (-1) in
  let save_checkpoint ?(force = false) () =
    match checkpoint with
    | Some { path; every } when (force || !gen mod max 1 every = 0) && !last_saved <> !gen ->
        last_saved := !gen;
        Snapshot.save path
          {
            Snapshot.population_size = params.population_size;
            seed = params.seed;
            n;
            generation = !gen;
            stall = !stall;
            evaluations = Objective.evaluations obj;
            wall_time_s = wall_now ();
            faults = Objective.fault_snapshot obj;
            migration_cursor = !migration_cursor;
            group_cache = Objective.cache_stats obj;
            plan_cache = Objective.plan_cache_stats obj;
            horizontal = params.horizontal;
            best = !best.packs;
            history = List.rev !history;
            islands =
              Array.to_list
                (Array.map
                   (fun st ->
                     {
                       Snapshot.rng_state = Rng.state st.irng;
                       population = Array.to_list (Array.map (fun ind -> ind.packs) st.ipop);
                     })
                   islands);
          };
        if Kf_obs.Trace.enabled () then
          Kf_obs.Trace.instant ~cat:"hgga"
            ~args:[ ("generation", Kf_obs.Json.Int !gen); ("path", Kf_obs.Json.Str path) ]
            "checkpoint";
        true
    | _ -> false
  in
  (* Budgets are enforced at generation granularity: the search degrades
     gracefully by keeping the incumbent instead of aborting mid-way. *)
  let over_budget () =
    let evals = Objective.evaluations obj in
    if (match interrupt with Some f -> f () | None -> false) then Some Interrupted
    else if (match budget.max_evaluations with Some m -> evals >= m | None -> false) then
      Some Evaluation_budget
    else if
      match budget.max_wall_s with Some m -> wall_now () >= m | None -> false
    then Some Wall_budget
    else begin
      match budget.max_fault_rate with
      | Some r when evals >= budget.min_rate_evals && Objective.fault_rate obj >= r ->
          Some Fault_overload
      | _ -> None
    end
  in
  (* Initial populations were built on this domain; merge their verdicts
     into the shared base so generation 1's workers start from a warm
     read-only table and the evaluation counter is exact. *)
  Objective.merge_locals obj;
  (* Budgets and reported stats span the whole logical run: seed the
     objective's counters with the work spent before the snapshot (its
     evaluations, faults and cache traffic).  Re-costing the
     checkpointed individuals repeats evaluations and probes the
     snapshot already counts, so only the remainder is seeded: a resume
     that runs no generation reports the snapshot's counts. *)
  (match resumed with
  | Some snap ->
      let recost = Objective.evaluations obj - evaluations_before in
      Objective.add_evaluations obj (max 0 (snap.Snapshot.evaluations - recost));
      Objective.add_faults obj snap.Snapshot.faults;
      let remainder (saved : Objective.cache_stats) (before : Objective.cache_stats) now =
        {
          saved with
          Objective.hits = max 0 (saved.Objective.hits - (now.Objective.hits - before.Objective.hits));
          misses = max 0 (saved.misses - (now.Objective.misses - before.Objective.misses));
        }
      in
      Objective.add_cache_stats obj
        ~group:(remainder snap.Snapshot.group_cache group_before (Objective.cache_stats obj))
        ~plan:(remainder snap.Snapshot.plan_cache plan_before (Objective.plan_cache_stats obj))
  | None -> ());
  let stop = ref None in
  (* One persistent pool for the whole run: spawning domains per
     generation would dominate small-population generations. *)
  let workers = if k_islands > 1 then min params.domains k_islands else params.domains in
  let pool = if workers > 1 then Some (Pool.create workers) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
  while
    !stop = None && !gen < params.max_generations && !stall < params.stall_generations
  do
    match over_budget () with
    | Some reason -> stop := Some reason
    | None ->
    incr gen;
    (* Islands advance in lockstep: the incumbent cost every island sees
       is fixed before the fan-out, each island step touches only its own
       state, and the combine below runs sequentially on this domain —
       so a fixed island count gives bit-identical results for any worker
       count. *)
    let incumbent_cost = !best.cost in
    (* Placeholders only: every slot is overwritten below. *)
    let gen_bests = Array.make k_islands !best in
    (if k_islands = 1 then
       gen_bests.(0) <-
         step_island obj params ~n ~incumbent_cost ?child_pool:pool islands.(0)
     else
       match pool with
       | None ->
           Array.iteri
             (fun i st -> gen_bests.(i) <- step_island obj params ~n ~incumbent_cost st)
             islands
       | Some p ->
           (* Work-stealing fan-out: each island step is one task.  A
              domain that finishes its islands early steals queued
              islands from a loaded neighbor instead of idling — island
              steps vary wildly in cost (refinement triggers on
              improving islands only), which is exactly what made the
              old lockstep strided assignment lose to sequential. *)
           Pool.run p ~tasks:k_islands (fun i ->
               gen_bests.(i) <- step_island obj params ~n ~incumbent_cost islands.(i)));
    (* Generation barrier: all workers are parked in the pool again, so
       fold their private memo tables into the shared bases.  Everything
       below — budget checks, progress callbacks, checkpoints, traces —
       reads merged (scheduling-independent) evaluation counts. *)
    Objective.merge_locals obj;
    let gen_best =
      Array.fold_left
        (fun acc x -> if x.cost < acc.cost then x else acc)
        gen_bests.(0) gen_bests
    in
    if gen_best.cost < !best.cost -. 1e-15 then begin
      best := gen_best;
      history := (!gen, gen_best.cost) :: !history;
      stall := 0
    end
    else incr stall;
    (match on_generation with
    | Some f ->
        f
          {
            p_generation = !gen;
            p_best_cost = !best.cost;
            p_stall = !stall;
            p_evaluations = Objective.evaluations obj;
            p_wall_s = wall_now ();
          }
    | None -> ());
    if
      k_islands >= 2 && params.migration_size >= 1
      && !gen mod params.migration_interval = 0
    then begin
      migrate islands !migration_cursor ~count:params.migration_size;
      incr migration_cursor;
      if Kf_obs.Trace.enabled () then
        Kf_obs.Trace.instant ~cat:"hgga"
          ~args:
            [
              ("generation", Kf_obs.Json.Int !gen);
              ("cursor", Kf_obs.Json.Int !migration_cursor);
              ("offset", Kf_obs.Json.Int (1 + ((!migration_cursor - 1) mod (k_islands - 1))));
            ]
          "migration"
    end;
    let checkpointed = save_checkpoint () in
    (* One structured record per generation.  All the derived quantities
       (mean cost, diversity) are computed only when a sink is attached,
       so the disabled-mode loop body is unchanged. *)
    if Kf_obs.Trace.enabled () then begin
      let open Kf_obs in
      if k_islands >= 2 then
        Array.iteri
          (fun i st ->
            let island_best =
              Array.fold_left
                (fun acc x -> if x.cost < acc.cost then x else acc)
                st.ipop.(0) st.ipop
            in
            Trace.instant ~cat:"hgga"
              ~args:
                [
                  ("generation", Json.Int !gen);
                  ("island", Json.Int i);
                  ("size", Json.Int st.isize);
                  ("best_cost", Json.Float island_best.cost);
                ]
              "island")
          islands;
      let all = all_individuals () in
      let finite_costs =
        Array.fold_left
          (fun acc x -> if Float.is_finite x.cost then x.cost :: acc else acc)
          [] all
      in
      let mean_cost =
        match finite_costs with
        | [] -> Float.nan
        | cs -> List.fold_left ( +. ) 0. cs /. float_of_int (List.length cs)
      in
      let distinct = Hashtbl.create params.population_size in
      Array.iter (fun x -> Hashtbl.replace distinct (Plan.canonical_groups x.groups) ()) all;
      let f = Objective.fault_snapshot obj in
      Trace.instant ~cat:"hgga"
        ~args:
          [
            ("generation", Json.Int !gen);
            ("best_cost", Json.Float !best.cost);
            ("gen_best_cost", Json.Float gen_best.cost);
            ("mean_cost", Json.Float mean_cost);
            ("diversity",
             Json.Float
               (float_of_int (Hashtbl.length distinct)
               /. float_of_int params.population_size));
            ("infeasible", Json.Int (Array.length all - List.length finite_costs));
            ("islands", Json.Int k_islands);
            ("stall", Json.Int !stall);
            ("evaluations", Json.Int (Objective.evaluations obj));
            ("wall_s", Json.Float (wall_now ()));
            ("faults_injected", Json.Int f.Objective.injected);
            ("faults_quarantined", Json.Int f.Objective.quarantined);
            ("group_cache_hits", Json.Int (Objective.cache_stats obj).Objective.hits);
            ("plan_cache_hits", Json.Int (Objective.plan_cache_stats obj).Objective.hits);
            ("checkpointed", Json.Bool checkpointed);
          ]
        "generation"
    end
  done);
  let stop_reason =
    match !stop with
    | Some r -> r
    | None -> if !gen >= params.max_generations then Generation_cap else Converged
  in
  (* A final unconditional checkpoint: without it, a budget or convergence
     stop discards up to [every - 1] generations of progress since the
     last periodic save. *)
  ignore (save_checkpoint ~force:true () : bool);
  if Kf_obs.Trace.enabled () then
    Kf_obs.Trace.instant ~cat:"hgga"
      ~args:
        [
          ("reason", Kf_obs.Json.Str (stop_reason_name stop_reason));
          ("generations", Kf_obs.Json.Int !gen);
          ("evaluations", Kf_obs.Json.Int (Objective.evaluations obj));
        ]
      "stop";
  (* Graceful degradation: if no feasible individual ever appeared (every
     candidate quarantined or infeasible), fall back to the greedy
     baseline, and to the identity plan when even that fails. *)
  let best_packs =
    if Float.is_finite !best.cost then !best.packs
    else begin
      match Greedy.solve obj with
      | g when Float.is_finite g.Greedy.cost -> vpacks g.Greedy.groups
      | _ -> vpacks identity
      | exception _ -> vpacks identity
    end
  in
  (* The large-instance relocation pass is vertical-only; run it only
     when the winner carries no genuine packs to preserve. *)
  let best_packs =
    if n > 64 && List.for_all (fun pack -> List.length pack = 1) best_packs then
      vpacks (Grouping.local_refine ~max_passes:1 obj (List.concat best_packs))
    else best_packs
  in
  let final_comps = enforce_profitability_c obj best_packs in
  let final_cost = Objective.eval_plan obj final_comps in
  let final_plan = Plan.of_composed ~n final_comps in
  let final_groups = Plan.groups final_plan in
  (* Pick up the final refinement's verdicts too, so the reported stats
     and any caller-side warm-cache export see a fully merged base. *)
  Objective.merge_locals obj;
  {
    groups = final_groups;
    plan = final_plan;
    cost = final_cost;
    stats =
      {
        generations = !gen;
        evaluations = Objective.evaluations obj;
        wall_time_s = wall_now ();
        best_cost = final_cost;
        improvement_history = List.rev !history;
        stop = stop_reason;
        faults = Objective.fault_snapshot obj;
        group_cache = Objective.cache_stats obj;
        plan_cache = Objective.plan_cache_stats obj;
      };
  }

(* Portfolio wrapper: the search itself is the single-device [solve]
   (the primary device drives selection, bit-identical to a run without
   a portfolio); the per-device winners and the cross-device front are
   read off the objective's accumulated rows afterwards. *)
type portfolio_result = {
  primary : result;
  devices : Kf_gpu.Device.t array;
  front : Objective.pareto_entry list;
  best_per_device : Objective.pareto_entry array;
}

let solve_portfolio ?params ?checkpoint ?resume_from ?budget ?seed_plans ?on_generation
    ?interrupt obj =
  if not (Objective.portfolio_active obj) then
    invalid_arg "Hgga.solve_portfolio: objective has no device portfolio";
  let primary =
    solve ?params ?checkpoint ?resume_from ?budget ?seed_plans ?on_generation ?interrupt obj
  in
  let devices = Objective.portfolio_devices obj in
  let front = Objective.pareto_front obj in
  let best_per_device =
    match front with
    | [] -> [||]
    | e0 :: rest ->
        Array.init (Array.length devices) (fun d ->
            List.fold_left
              (fun best e ->
                if e.Objective.pf_costs.(d) < best.Objective.pf_costs.(d) then e else best)
              e0 rest)
  in
  { primary; devices; front; best_per_device }
