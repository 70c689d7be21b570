module Inputs = Kf_model.Inputs
module Feature_arena = Kf_model.Feature_arena
module Plan = Kf_fusion.Plan
module Metadata = Kf_ir.Metadata
module Device = Kf_gpu.Device
module Exec_order = Kf_graph.Exec_order
module Sig_tbl = Struct_memo.Sig_tbl
module Sigbuf = Plan.Sigbuf

type model = Proposed | Roofline | Simple | Mwp

type verdict = { feasible : bool; cost : float; orig_sum : float }

type fault_stats = {
  mutable injected : int;
  mutable trapped : int;
  mutable corrupted : int;
  mutable retries : int;
  mutable recovered : int;
  mutable quarantined : int;
}

let zero_faults () =
  { injected = 0; trapped = 0; corrupted = 0; retries = 0; recovered = 0; quarantined = 0 }

let copy_faults f =
  {
    injected = f.injected;
    trapped = f.trapped;
    corrupted = f.corrupted;
    retries = f.retries;
    recovered = f.recovered;
    quarantined = f.quarantined;
  }

type guard = (int list -> verdict) -> int list -> verdict

type cache_stats = { hits : int; misses : int; evictions : int; size : int }

let zero_cache_stats = { hits = 0; misses = 0; evictions = 0; size = 0 }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    size = a.size + b.size;
  }

(* ---- caches: shared base + per-domain locals ---------------------------- *)

(* The two-level skeleton every cache shares.  [probe_key] looks a
   borrowed key up in the shared base (read-only between merges, so
   lock-free), then in the domain's private table; a hit returns the
   stored option and allocates nothing.  On a miss the caller copies the
   key out of its buffer {e before} computing — the computation may
   re-encode through the same arena — and [record]s the value
   privately; {!merge_table} folds it into the base at the next
   barrier. *)
let probe_key base local buf len hash =
  match Sig_tbl.find_pre base ~buf ~len ~hash with
  | None -> Sig_tbl.find_pre local ~buf ~len ~hash
  | found -> found

let probe base local sb =
  probe_key base local (Sigbuf.unsafe_buf sb) (Sigbuf.length sb) (Sigbuf.hash sb)

let record local key v = Sig_tbl.add local key ~hash:(Plan.signature_hash key) v

(* Fold a private table into its base, returning how many keys were new
   to the base (a key several domains computed in one generation merges
   once). *)
let merge_table base local =
  let fresh = ref 0 in
  Sig_tbl.iter
    (fun key ~hash v ->
      if not (Sig_tbl.mem_pre base ~buf:key ~len:(Array.length key) ~hash) then begin
        Sig_tbl.add base key ~hash v;
        incr fresh
      end)
    local;
  Sig_tbl.clear local;
  !fresh

(* A candidate plan offered to the cross-device Pareto front: its
   canonical signature (the dedup key among equal-cost plans), its
   canonical groups (for reporting) and its per-device total cost. *)
type offer = { of_sig : int array; of_plan : int list list; of_costs : float array }

type pareto_entry = { pf_plan : int list list; pf_costs : float array }

(* Multi-device portfolio state.  [rows] memoizes full per-device cost
   rows keyed by group signature (shared base merged like the verdict
   cache, so [rows_merged] counts each distinct row once); [front] is the global non-dominated set, updated only
   at merge points. *)
type portfolio_state = {
  rows : float array Sig_tbl.t;
  mutable front : offer list;
  mutable rows_merged : int;  (* distinct group rows, exactly-once *)
}

(* A per-domain slot for a search layer's reusable scratch state (the
   grouping operators' partition state), extended by the layer that
   owns it.  It lives in the domain's evaluation context, so it dies
   with the objective. *)
type scratch = ..
type scratch += No_scratch

(* Per-domain evaluation context: private group-verdict and plan tables,
   the signature-encoding arena, probe counters and the search layer's
   scratch.  Touched only by its owning domain, so none of this needs a
   lock. *)
type eval_local = {
  el_groups : verdict Sig_tbl.t;
  el_plans : float Sig_tbl.t;
  el_sb : Sigbuf.t;
  el_rows : float array Sig_tbl.t;  (* portfolio rows not yet merged *)
  mutable el_offers : offer list;  (* plan offers not yet merged *)
  mutable el_ghits : int;
  mutable el_gmisses : int;
  mutable el_phits : int;
  mutable el_pmisses : int;
  mutable el_evals : int;  (* evaluations run since the last merge *)
  mutable el_pub_ghits : int;  (* watermarks already flushed to metrics *)
  mutable el_pub_gmisses : int;
  mutable el_pub_phits : int;
  mutable el_pub_pmisses : int;
  mutable el_scratch : scratch;
}

type t = {
  inputs : Inputs.t;
  model : model;
  arena : Feature_arena.t;  (* allocation-free evaluation leaf, every device *)
  singles : verdict array;  (* the verdict of each original kernel *)
  port : portfolio_state option;  (* multi-device portfolio *)
  gcache : verdict Sig_tbl.t;  (* shared group-verdict base *)
  plans : float Sig_tbl.t;  (* shared plan-level base: key -> canonical-order total *)
  mutable locals : (int * eval_local) list;  (* keyed by domain id *)
  reg_lock : Mutex.t;  (* guards [locals] registration *)
  memos : Struct_memo.memos;  (* fixed per-kernel structure *)
  stats_lock : Mutex.t;  (* guards the cross-domain mutable counters below *)
  mutable evaluations : int;  (* merged + seeded exactly-once count *)
  mutable eval_time_s : float;
  mutable alloc_words : float;  (* minor words allocated by timed evaluations *)
  mutable timed_evals : int;  (* evaluations the metrics branch sampled *)
  mutable base_group : cache_stats;  (* resume seed for group-cache stats *)
  mutable base_plan : cache_stats;  (* resume seed for plan-cache stats *)
  time_counter : Kf_obs.Metrics.counter;
  guard : guard;
  fault_record : fault_stats;
}

(* Process-wide telemetry counters; no-ops unless Kf_obs.Metrics is
   enabled.  They are flushed at merge points instead of per probe, so
   the lock-free hot path never contends on the registry's atomics. *)
let m_evals = Kf_obs.Metrics.counter "objective.evaluations"
let m_group_hits = Kf_obs.Metrics.counter "objective.group_cache_hits"
let m_group_misses = Kf_obs.Metrics.counter "objective.group_cache_misses"
let m_plan_hits = Kf_obs.Metrics.counter "objective.plan_cache_hits"
let m_plan_misses = Kf_obs.Metrics.counter "objective.plan_cache_misses"
let g_alloc_per_eval = Kf_obs.Metrics.gauge "objective.alloc_per_eval"

let model_name = function
  | Proposed -> "proposed"
  | Roofline -> "roofline"
  | Simple -> "simple"
  | Mwp -> "mwp"

let create ?(model = Proposed) ?(guard = fun eval group -> eval group)
    ?(faults = zero_faults ()) ?(portfolio = []) inputs =
  let dag = Exec_order.dag inputs.Inputs.exec in
  let nk = Kf_graph.Dag.num_nodes dag in
  let adjacency f = Array.init nk (fun u -> Array.of_list (f dag u)) in
  let arena = Feature_arena.create inputs ~extra:portfolio in
  {
    inputs;
    model;
    arena;
    singles =
      Array.map
        (fun cost -> { feasible = true; cost; orig_sum = cost })
        inputs.Inputs.measured_runtime;
    port =
      (if portfolio = [] then None
       else Some { rows = Sig_tbl.create (); front = []; rows_merged = 0 });
    gcache = Sig_tbl.create ();
    plans = Sig_tbl.create ();
    locals = [];
    reg_lock = Mutex.create ();
    memos =
      {
        Struct_memo.succs = adjacency Kf_graph.Dag.succs;
        preds = adjacency Kf_graph.Dag.preds;
        kin = Feature_arena.kin_rows arena;
        desc = Feature_arena.descendants arena;
        anc = Feature_arena.ancestors arena;
      };
    stats_lock = Mutex.create ();
    evaluations = 0;
    eval_time_s = 0.;
    alloc_words = 0.;
    timed_evals = 0;
    base_group = zero_cache_stats;
    base_plan = zero_cache_stats;
    time_counter = Kf_obs.Metrics.counter ("objective.eval_us." ^ model_name model);
    guard;
    fault_record = faults;
  }

let inputs t = t.inputs
let model t = t.model
let memos t = t.memos
let struct_memos t = Some t.memos

(* The per-domain evaluation context.  Reading [t.locals] without the
   lock is safe: the list is immutable (registration conses a new head
   under [reg_lock]), and a domain's own entry is always visible to it
   because the domain appended it.  Entries registered concurrently by
   other domains may be missing from a stale snapshot, which only means
   this walk doesn't find them — never a torn read. *)
let rec local_of_list did = function
  | (d, l) :: tl -> if d = did then l else local_of_list did tl
  | [] -> raise_notrace Not_found

let local_of t =
  let did = (Domain.self () :> int) in
  match local_of_list did t.locals with
  | l -> l
  | exception Not_found ->
      let l =
        {
          el_groups = Sig_tbl.create ();
          el_plans = Sig_tbl.create ();
          el_sb = Sigbuf.create ();
          el_rows = Sig_tbl.create ();
          el_offers = [];
          el_ghits = 0;
          el_gmisses = 0;
          el_phits = 0;
          el_pmisses = 0;
          el_evals = 0;
          el_pub_ghits = 0;
          el_pub_gmisses = 0;
          el_pub_phits = 0;
          el_pub_pmisses = 0;
          el_scratch = No_scratch;
        }
      in
      Mutex.lock t.reg_lock;
      t.locals <- (did, l) :: t.locals;
      Mutex.unlock t.reg_lock;
      l

let scratch t = (local_of t).el_scratch
let set_scratch t s = (local_of t).el_scratch <- s

let arena_cost t scr ~dev =
  match t.model with
  | Proposed -> Kf_model.Projection.arena_runtime scr ~dev
  | Roofline -> Kf_model.Roofline.arena_runtime scr ~dev
  | Simple -> Kf_model.Simple_model.arena_runtime scr ~dev
  | Mwp -> Kf_model.Mwp.arena_runtime scr ~dev

(* The evaluation leaf, over the arena's precomputed features.  Active-
   constraint pruning: cheap structural checks first, resource checks
   only on structurally valid groups, model evaluation only on fully
   feasible ones.  The check order, booleans and float folds are those
   of the per-candidate [Fused.build] leaf, which the test suite keeps
   as a bit-for-bit oracle; the only allocation left is the verdict
   record itself. *)
let evaluate t group =
  match group with
  | [ k ] ->
      let cost = t.inputs.Inputs.measured_runtime.(k) in
      { feasible = true; cost; orig_sum = cost }
  | _ ->
      let orig_sum = Inputs.original_sum t.inputs group in
      let scr = Feature_arena.load t.arena group in
      if not (Feature_arena.connected scr) then
        { feasible = false; cost = Float.infinity; orig_sum }
      else if Feature_arena.spans_sync scr then
        { feasible = false; cost = Float.infinity; orig_sum }
      else if not (Feature_arena.convex scr) then
        { feasible = false; cost = Float.infinity; orig_sum }
      else begin
        Feature_arena.analyze scr;
        Feature_arena.fuse scr ~dev:0;
        let d = t.inputs.Inputs.device in
        if
          Feature_arena.vertical_hazard scr
          || Feature_arena.smem_bytes_per_block scr > d.Device.smem_per_smx
          || Feature_arena.registers_per_thread scr >= d.Device.max_registers_per_thread
        then { feasible = false; cost = Float.infinity; orig_sum }
        else { feasible = true; cost = arena_cost t scr ~dev:0; orig_sum }
      end

(* Full per-device cost row of a multi-member group: structural checks
   and analysis once, then one [fuse] + model call per device.  Device 0
   reproduces [evaluate]'s cost bit-for-bit (same code runs), so a row
   is a superset of the primary verdict. *)
let compute_row t group =
  let a = t.arena in
  let ndev = Feature_arena.num_devices a in
  let row = Array.make ndev Float.infinity in
  let scr = Feature_arena.load a group in
  if
    Feature_arena.connected scr
    && (not (Feature_arena.spans_sync scr))
    && Feature_arena.convex scr
  then begin
    Feature_arena.analyze scr;
    if not (Feature_arena.vertical_hazard scr) then
      for dev = 0 to ndev - 1 do
        Feature_arena.fuse scr ~dev;
        let d = Feature_arena.device a dev in
        if
          Feature_arena.smem_bytes_per_block scr <= d.Device.smem_per_smx
          && Feature_arena.registers_per_thread scr < d.Device.max_registers_per_thread
        then row.(dev) <- arena_cost t scr ~dev
      done
  end;
  row

(* Evaluate a missed key (evaluation is pure).  The guard sits between
   the cache and the raw evaluation, so any fault handling it performs
   (retry, quarantine) is memoized like a normal verdict.  The timing
   branch only runs with metrics enabled, keeping the disabled-mode hot
   path clock-free. *)
let run_evaluation t group =
  if Kf_obs.Metrics.enabled () then begin
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    let v = t.guard (evaluate t) group in
    (* [minor_words] reads the domain-local allocation pointer, so the
       delta is this evaluation's own minor allocation — the hot-path
       health gauge of the arena leaf. *)
    let dw = Float.max 0. (Gc.minor_words () -. w0) in
    let dt = Float.max 0. (Unix.gettimeofday () -. t0) in
    Mutex.lock t.stats_lock;
    t.eval_time_s <- t.eval_time_s +. dt;
    t.alloc_words <- t.alloc_words +. dw;
    t.timed_evals <- t.timed_evals + 1;
    let per_eval = t.alloc_words /. float_of_int t.timed_evals in
    Mutex.unlock t.stats_lock;
    Kf_obs.Metrics.add t.time_counter (int_of_float (dt *. 1e6));
    Kf_obs.Metrics.set g_alloc_per_eval per_eval;
    v
  end
  else t.guard (evaluate t) group

(* Group-cache probe of the key encoded in [l.el_sb], with the probe
   telemetry.  A miss is an evaluation: counted here per domain and
   collapsed across domains at {!merge_locals}, so a key evaluated
   concurrently by several domains counts once. *)
let probe_group t l =
  match probe t.gcache l.el_groups l.el_sb with
  | Some _ as v ->
      l.el_ghits <- l.el_ghits + 1;
      v
  | None ->
      l.el_gmisses <- l.el_gmisses + 1;
      l.el_evals <- l.el_evals + 1;
      None

(* A group-cache miss on the key encoded in [l.el_sb]: evaluate the
   group, given in canonical member order.  Evaluating the canonically
   sorted group means a verdict never depends on which member ordering
   reached the cache first. *)
let miss_group t l sorted_group =
      let key = Sigbuf.extract l.el_sb in
      let v = run_evaluation t sorted_group in
      record l.el_groups key v;
      (* Portfolio: fill the per-device cost row alongside the primary
         verdict.  Rows bypass the guard (they are pure model outputs),
         and their exactly-once accounting mirrors the verdict merge. *)
      if t.port <> None then record l.el_rows key (compute_row t sorted_group);
      v

(* Verdict of a multi-member group already in canonical member order. *)
let lookup_sig t sorted_group =
  let l = local_of t in
  Sigbuf.encode_group l.el_sb sorted_group;
  match probe_group t l with Some v -> v | None -> miss_group t l sorted_group

let lookup t group =
  match group with
  | [ k ] ->
      (* Singletons carry their measured runtime and are feasible by
         definition: answered from the inputs without touching the
         cache, and never counted as evaluations. *)
      t.singles.(k)
  | _ -> lookup_sig t (if Plan.is_sorted_strict group then group else List.sort Int.compare group)

(* Per-device cost row of a canonical multi-member group, through the
   two-level row cache. *)
let row_of_group st t l g =
  Sigbuf.encode_group l.el_sb g;
  match probe st.rows l.el_rows l.el_sb with
  | Some r -> r
  | None ->
      let key = Sigbuf.extract l.el_sb in
      let r = compute_row t g in
      record l.el_rows key r;
      r

(* Offer a freshly evaluated plan to the Pareto front: per-device totals
   summed in canonical group order (deterministic), buffered locally and
   folded into the global front at the next merge.  Rows are per group,
   so only plans of single-plane packs are offered ([Hgga.solve] refuses
   a horizontal search over a portfolio). *)
let offer_plan st t l ~psig ~canon =
  if List.for_all (function [ _ ] -> true | _ -> false) canon then begin
    let ndev = Feature_arena.num_devices t.arena in
    let costs = Array.make ndev 0. in
    let groups = List.concat canon in
    List.iter
      (fun g ->
        match g with
        | [ k ] ->
            for dev = 0 to ndev - 1 do
              costs.(dev) <- costs.(dev) +. (Feature_arena.measured_runtime t.arena ~dev).(k)
            done
        | _ ->
            let r = row_of_group st t l g in
            for dev = 0 to ndev - 1 do
              costs.(dev) <- costs.(dev) +. r.(dev)
            done)
      groups;
    l.el_offers <- { of_sig = psig; of_plan = groups; of_costs = costs } :: l.el_offers
  end

let group_feasible t group = (lookup t group).feasible
let group_cost t group = (lookup t group).cost

let group_profitable t group =
  match group with
  | [ _ ] -> true
  | _ ->
      let v = lookup t group in
      v.feasible && v.cost < v.orig_sum

(* ---- packs --------------------------------------------------------------- *)

module Horizontal = Kf_fusion.Horizontal

(* Resource pressure one plane contributes to its horizontal launch:
   original kernels bring their own registers (no SMEM), vertically fused
   planes bring the fused kernel's demand.  Only called on feasible
   planes (the caller checks the plane verdicts first), so arena
   analysis cannot trip on a structurally broken group. *)
let plane_pressure t g =
  match g with
  | [ k ] ->
      let p = Metadata.program t.inputs.Inputs.meta in
      Horizontal.pressure
        ~regs:(Kf_ir.Program.kernel p k).Kf_ir.Kernel.registers_per_thread ~smem:0
  | g ->
      let scr = Feature_arena.load t.arena g in
      Feature_arena.analyze scr;
      Feature_arena.fuse scr ~dev:0;
      Horizontal.pressure
        ~regs:(Feature_arena.registers_per_thread scr)
        ~smem:(Feature_arena.smem_bytes_per_block scr)

(* Verdict of one multi-plane pack.  The planes are evaluated through the
   ordinary vertical path (cached, guarded, counted); the combination is
   pure arithmetic through {!Kf_fusion.Horizontal} — the same function
   the simulator uses, which is what keeps measured and projected
   horizontal runtimes in agreement.  [planes] must be canonical: the
   per-plane cost sum folds in canonical plane order, so permuted-but-
   equal packs produce bit-identical floats. *)
let evaluate_comp t planes =
  let i = t.inputs in
  let orig_sum = List.fold_left (fun acc g -> acc +. Inputs.original_sum i g) 0. planes in
  if not (Plan.planes_independent ~exec:i.Inputs.exec planes) then
    { feasible = false; cost = Float.infinity; orig_sum }
  else begin
    let verdicts = List.map (lookup t) planes in
    if List.exists (fun v -> not v.feasible) verdicts then
      { feasible = false; cost = Float.infinity; orig_sum }
    else begin
      let combined = Horizontal.combine_pressure (List.map (plane_pressure t) planes) in
      let grid = (Metadata.program i.Inputs.meta).Kf_ir.Program.grid in
      let cost =
        Horizontal.runtime i.Inputs.device
          ~threads_per_block:(Kf_ir.Grid.threads_per_block grid)
          ~blocks:(Kf_ir.Grid.blocks grid)
          ~costs:(List.map (fun v -> v.cost) verdicts)
          combined
      in
      { feasible = Float.is_finite cost; cost; orig_sum }
    end
  end

(* A group-cache miss on the multi-plane pack key encoded in
   [l.el_sb].  Its planes are decoded from the key, so they are
   canonical. *)
let miss_pack t l =
  let key = Sigbuf.extract l.el_sb in
  let v = evaluate_comp t (List.hd (Sigbuf.decode key)) in
  record l.el_groups key v;
  v

(* The one pack verdict, for a canonical pack.  A single-plane pack is
   its group's verdict; a multi-plane pack is the [Horizontal]
   combination, cached in the group tables under its [-3] key (disjoint
   from every group key), so pack verdicts inherit the merge machinery,
   the exactly-once evaluation accounting and the domain-count
   determinism. *)
let pack_verdict t pack =
  match pack with
  | [ g ] -> lookup t g
  | planes -> (
      let l = local_of t in
      Sigbuf.encode_pack l.el_sb planes;
      match probe_group t l with Some v -> v | None -> miss_pack t l)

let pack_profitable t pack =
  match pack with
  | [ g ] -> group_profitable t g
  | planes ->
      let v = pack_verdict t (Plan.canonical_groups planes) in
      v.feasible && v.cost < v.orig_sum

let rec push_slice sb buf i stop =
  if i < stop then begin
    Sigbuf.push sb (Array.unsafe_get buf i);
    push_slice sb buf (i + 1) stop
  end

let rec list_of_slice buf start i acc =
  if i < start then acc else list_of_slice buf start (i - 1) (buf.(i) :: acc)

let rec has_planes buf i stop = i < stop && (Array.unsafe_get buf i = -3 || has_planes buf (i + 1) stop)

(* Verdict of the group or multi-plane pack whose key is
   [buf.(start .. stop-1)], in canonical order.  A single kernel is
   answered from its measured runtime; any other slice is copied into
   the domain's arena and probed there, so a hit allocates nothing. *)
let verdict_of_slice t l buf start stop =
  if stop - start = 1 then t.singles.(buf.(start))
  else begin
    Sigbuf.reset l.el_sb;
    push_slice l.el_sb buf start stop;
    match probe_group t l with
    | Some v -> v
    | None when has_planes buf start stop -> miss_pack t l
    | None -> miss_group t l (list_of_slice buf start (stop - 1) [])
  end

let verdict_of_sorted t buf len = verdict_of_slice t (local_of t) buf 0 len

(* ---- plan-level evaluation ---------------------------------------------- *)

(* Plan-cache probe of a borrowed key. *)
let probe_plan t l buf len hash =
  match probe_key t.plans l.el_plans buf len hash with
  | Some _ as pe ->
      l.el_phits <- l.el_phits + 1;
      pe
  | None ->
      l.el_pmisses <- l.el_pmisses + 1;
      None

(* End of the pack that starts at [key.(i)]: the next [-1] or [n]. *)
let rec pack_end key i n = if i >= n || Array.unsafe_get key i = -1 then i else pack_end key (i + 1) n

(* A plan-cache miss: sum the packs of the owned key in canonical order.
   A one-kernel pack costs its measured runtime (never cached); any
   other pack's slice of the key is exactly its verdict-cache key, so it
   is probed in place.  The loop keeps its index and total in local
   refs, which the compiler unboxes, so a miss whose packs all hit the
   group cache allocates nothing per pack. *)
let sum_key t l key =
  let n = Array.length key in
  let total = ref 0. and i = ref 0 in
  while !i < n do
    let stop = pack_end key !i n in
    total := !total +. (verdict_of_slice t l key !i stop).cost;
    i := stop + 1
  done;
  !total

(* A plan-cache miss on the owned key [psig].  Only a portfolio's Pareto
   offer needs the plan's groups, so only it decodes the key. *)
let miss_plan t l psig =
  let total = sum_key t l psig in
  record l.el_plans psig total;
  (match t.port with
  | Some st -> offer_plan st t l ~psig ~canon:(Sigbuf.decode psig)
  | None -> ());
  total

(* Evaluate the plan key encoded in [sb] through the two-level cache.
   The total is summed in canonical pack order, so a permuted-but-equal
   plan hitting the plan cache returns a bit-identical total.  A hit
   allocates nothing: the test suite pins the words for cloverleaf and
   scale-les plans, vertical and with horizontal packs. *)
let eval_encoded t sb =
  let l = local_of t in
  match probe_plan t l (Sigbuf.unsafe_buf sb) (Sigbuf.length sb) (Sigbuf.hash sb) with
  | Some total -> total
  | None -> miss_plan t l (Sigbuf.extract sb)

let eval_key t key =
  let l = local_of t in
  match probe_plan t l key (Array.length key) (Plan.signature_hash key) with
  | Some total -> total
  | None -> miss_plan t l key

(* The arena encodes the canonical signature in place and reuses packs
   that are already canonical. *)
let eval_plan t packs =
  let l = local_of t in
  Sigbuf.encode_plan l.el_sb packs;
  eval_encoded t l.el_sb

let plan_key t packs =
  let l = local_of t in
  Sigbuf.encode_plan l.el_sb packs;
  Sigbuf.extract l.el_sb

let plan_cost t groups = eval_plan t (List.map (fun g -> [ g ]) groups)

let original_sum t group = Inputs.original_sum t.inputs group

(* ---- merge at generation barriers --------------------------------------- *)

(* Strict Pareto dominance over cost vectors: no worse everywhere,
   strictly better somewhere.  Infinities compare like any float, so an
   everywhere-infeasible plan is dominated by anything finite. *)
let dominates a b =
  let n = Array.length a in
  let le = ref true and lt = ref false in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then le := false else if a.(i) < b.(i) then lt := true
  done;
  !le && !lt

(* Fold one offer into the non-dominated set.  The result is independent
   of offer order: dominance is transitive, and equal cost vectors are
   deduplicated to the lexicographically smallest plan signature. *)
let front_offer st o =
  let shadowed e =
    dominates e.of_costs o.of_costs
    || (e.of_costs = o.of_costs && Stdlib.compare e.of_sig o.of_sig <= 0)
  in
  if not (List.exists shadowed st.front) then
    st.front <-
      o
      :: List.filter
           (fun e ->
             (not (dominates o.of_costs e.of_costs))
             && not (e.of_costs = o.of_costs && Stdlib.compare o.of_sig e.of_sig < 0))
           st.front

(* Fold every domain's private tables into the shared bases.  Must only
   run at a quiescent point: all workers parked at the pool's generation
   barrier (its mutex handshake publishes the workers' writes to the
   merging domain and the updated bases back to them), or a
   single-domain caller.

   Evaluation accounting: each private verdict whose key is not yet in
   the base counts as one evaluation.  A key evaluated by several
   domains in the same generation merges — and counts — once, so
   budgets and fault-rate denominators stay identical for any domain
   count.  (Locals hide duplicates within one domain between merges, so
   the per-local fresh-key count is the per-local evaluation count.) *)
let merge_locals t =
  let fresh = ref 0 in
  List.iter
    (fun (_, l) ->
      (match t.port with
      | Some st ->
          st.rows_merged <- st.rows_merged + merge_table st.rows l.el_rows;
          List.iter (front_offer st) (List.rev l.el_offers);
          l.el_offers <- []
      | None -> ());
      fresh := !fresh + merge_table t.gcache l.el_groups;
      l.el_evals <- 0;
      ignore (merge_table t.plans l.el_plans);
      (* Flush probe telemetry to the (atomic) metrics registry here
         rather than contending on it per probe. *)
      Kf_obs.Metrics.incr ~by:(l.el_ghits - l.el_pub_ghits) m_group_hits;
      Kf_obs.Metrics.incr ~by:(l.el_gmisses - l.el_pub_gmisses) m_group_misses;
      Kf_obs.Metrics.incr ~by:(l.el_phits - l.el_pub_phits) m_plan_hits;
      Kf_obs.Metrics.incr ~by:(l.el_pmisses - l.el_pub_pmisses) m_plan_misses;
      l.el_pub_ghits <- l.el_ghits;
      l.el_pub_gmisses <- l.el_gmisses;
      l.el_pub_phits <- l.el_phits;
      l.el_pub_pmisses <- l.el_pmisses)
    t.locals;
  if !fresh > 0 then begin
    Mutex.lock t.stats_lock;
    t.evaluations <- t.evaluations + !fresh;
    Mutex.unlock t.stats_lock;
    Kf_obs.Metrics.incr ~by:!fresh m_evals
  end

(* ---- portfolio accessors (call at quiescent points, like merges) ------- *)

let portfolio_active t = t.port <> None

let portfolio_devices t =
  match t.port with
  | Some _ -> Feature_arena.devices t.arena
  | None -> [| t.inputs.Inputs.device |]

let rows_evaluated t =
  merge_locals t;
  match t.port with Some st -> st.rows_merged | None -> 0

let group_row t group =
  match t.port with
  | None -> None
  | Some st -> (
      match group with
      | [ k ] ->
          Some
            (Array.init
               (Feature_arena.num_devices t.arena)
               (fun dev -> (Feature_arena.measured_runtime t.arena ~dev).(k)))
      | _ ->
          let sorted =
            if Plan.is_sorted_strict group then group else List.sort Int.compare group
          in
          Some (Array.copy (row_of_group st t (local_of t) sorted)))

let pareto_front t =
  match t.port with
  | None -> []
  | Some st ->
      merge_locals t;
      let entries =
        List.sort
          (fun a b ->
            let c = Stdlib.compare a.of_costs b.of_costs in
            if c <> 0 then c else Stdlib.compare a.of_sig b.of_sig)
          st.front
      in
      List.map (fun o -> { pf_plan = o.of_plan; pf_costs = Array.copy o.of_costs }) entries

let alloc_per_eval t =
  Mutex.lock t.stats_lock;
  let v =
    if t.timed_evals = 0 then 0. else t.alloc_words /. float_of_int t.timed_evals
  in
  Mutex.unlock t.stats_lock;
  v

(* Merged exactly-once count plus each domain's evaluations since its
   last merge.  Exact at merge points and for single-domain use (one
   local dedups its own traffic); between barriers with several domains
   the live part may transiently include cross-domain duplicates that
   the next merge collapses. *)
let evaluations t =
  Mutex.lock t.stats_lock;
  let n = t.evaluations in
  Mutex.unlock t.stats_lock;
  List.fold_left (fun acc (_, l) -> acc + l.el_evals) n t.locals

(* Resume support: a solver restoring a checkpoint seeds the counter with
   the evaluations already spent before the snapshot, so budgets and
   reported stats span the whole logical run, not just this process. *)
let add_evaluations t n =
  if n < 0 then invalid_arg "Objective.add_evaluations: negative count";
  Mutex.lock t.stats_lock;
  t.evaluations <- t.evaluations + n;
  Mutex.unlock t.stats_lock

let add_faults t (base : fault_stats) =
  Mutex.lock t.stats_lock;
  let f = t.fault_record in
  f.injected <- f.injected + base.injected;
  f.trapped <- f.trapped + base.trapped;
  f.corrupted <- f.corrupted + base.corrupted;
  f.retries <- f.retries + base.retries;
  f.recovered <- f.recovered + base.recovered;
  f.quarantined <- f.quarantined + base.quarantined;
  Mutex.unlock t.stats_lock

let add_cache_stats t ~group ~plan =
  Mutex.lock t.stats_lock;
  (* The size field of a seed is meaningless (the prior table is gone);
     only the flow counters accumulate. *)
  t.base_group <-
    add_stats t.base_group { group with size = 0 };
  t.base_plan <- add_stats t.base_plan { plan with size = 0 };
  Mutex.unlock t.stats_lock

let base_group_stats t =
  Mutex.lock t.stats_lock;
  let s = t.base_group in
  Mutex.unlock t.stats_lock;
  s

let base_plan_stats t =
  Mutex.lock t.stats_lock;
  let s = t.base_plan in
  Mutex.unlock t.stats_lock;
  s

(* Warm cross-request cache: the serve daemon exports one request's
   verdicts as a flat block and seeds them into the next request's
   objective over the same (program, device, model).  Both calls happen
   at quiescent points (the daemon calls them between requests). *)
module Block = struct
  type t = {
    keys : int array;
    offs : int array;
    cost : float array;
    orig_sum : float array;
    feasible : Bytes.t;
  }

  let create n ~words =
    {
      keys = Array.make words 0;
      offs = Array.make (n + 1) 0;
      cost = Array.create_float n;
      orig_sum = Array.create_float n;
      feasible = Bytes.make n '\000';
    }

  let empty = create 0 ~words:0
  let length b = Array.length b.cost
end

let export_block t =
  merge_locals t;
  let words = ref 0 and i = ref 0 in
  Sig_tbl.iter (fun k ~hash:_ _ -> words := !words + Array.length k) t.gcache;
  let b = Block.create (Sig_tbl.count t.gcache) ~words:!words in
  Sig_tbl.iter
    (fun k ~hash:_ v ->
      Array.blit k 0 b.keys b.offs.(!i) (Array.length k);
      b.offs.(!i + 1) <- b.offs.(!i) + Array.length k;
      b.cost.(!i) <- v.cost;
      b.orig_sum.(!i) <- v.orig_sum;
      if v.feasible then Bytes.set b.feasible !i '\001';
      incr i)
    t.gcache;
  b

let seed_block t (b : Block.t) =
  for i = 0 to Block.length b - 1 do
    let k = Array.sub b.keys b.offs.(i) (b.offs.(i + 1) - b.offs.(i)) in
    let hash = Plan.signature_hash k in
    if not (Sig_tbl.mem_pre t.gcache ~buf:k ~len:(Array.length k) ~hash) then
      Sig_tbl.add t.gcache k ~hash
        { feasible = Bytes.get b.feasible i = '\001'; cost = b.cost.(i); orig_sum = b.orig_sum.(i) }
  done

(* The "shards" are the shared base (index 0 — it holds the merged
   entries but sees no probes of its own)
   followed by one entry per domain-local context (its private probe
   counters and any entries not yet merged).  Sizes and hit/miss flows
   both sum to the aggregate {!cache_stats}. *)
let shard_stats t =
  let base =
    { hits = 0; misses = 0; evictions = 0; size = Sig_tbl.count t.gcache }
  in
  let locs =
    List.rev_map
      (fun (_, l) ->
        { hits = l.el_ghits; misses = l.el_gmisses; evictions = 0; size = Sig_tbl.count l.el_groups })
      t.locals
  in
  Array.of_list (base :: locs)

let num_shards t = 1 + List.length t.locals

let cache_stats t =
  add_stats (Array.fold_left add_stats zero_cache_stats (shard_stats t)) (base_group_stats t)

let plan_cache_stats t =
  let live =
    List.fold_left
      (fun acc (_, l) ->
        add_stats acc
          {
            hits = l.el_phits;
            misses = l.el_pmisses;
            evictions = 0;
            size = Sig_tbl.count l.el_plans;
          })
      {
        hits = 0;
        misses = 0;
        evictions = 0;
        size = Sig_tbl.count t.plans;
      }
      t.locals
  in
  add_stats live (base_plan_stats t)

let cache_hit_rate t =
  let s = cache_stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let eval_time_s t =
  Mutex.lock t.stats_lock;
  let v = t.eval_time_s in
  Mutex.unlock t.stats_lock;
  v

let faults t = t.fault_record

let fault_snapshot t =
  Mutex.lock t.stats_lock;
  let f = copy_faults t.fault_record in
  Mutex.unlock t.stats_lock;
  f

(* Per-candidate, not per-event: a transient failure that recovers on
   retry bumps [trapped] several times for one evaluation, so the event
   counts can exceed the attempt count.  A candidate counts as failed
   exactly when it ended quarantined, which happens at most once per
   distinct group — the rate stays in [0,1]. *)
let fault_rate t =
  let f = fault_snapshot t in
  let evals = evaluations t in
  if evals = 0 then 0. else float_of_int f.quarantined /. float_of_int evals

let pp_faults ppf f =
  Format.fprintf ppf
    "injected %d, trapped %d, corrupted %d, retries %d (recovered %d), quarantined %d"
    f.injected f.trapped f.corrupted f.retries f.recovered f.quarantined

let cache_size t = (cache_stats t).size
