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

type pareto_entry = { pf_plan : int list list; pf_costs : float array }

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
  rows : float array Sig_tbl.t;  (* portfolio cost rows, built at quiescent points *)
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
    rows = Sig_tbl.create ();
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

(* The structural prefix of every multi-member evaluation, on a loaded
   scratch: the cheap checks first (connectivity, sync points,
   convexity), then the device-independent analysis and its vertical
   hazard. *)
let fusable scr =
  Feature_arena.connected scr
  && (not (Feature_arena.spans_sync scr))
  && Feature_arena.convex scr
  && begin
       Feature_arena.analyze scr;
       not (Feature_arena.vertical_hazard scr)
     end

(* Constraints 1.6 and 1.7 on device [dev]: fuse the analyzed scratch
   for it, then check its SMEM and register limits. *)
let fits t scr ~dev =
  Feature_arena.fuse scr ~dev;
  let d = Feature_arena.device t.arena dev in
  Feature_arena.smem_bytes_per_block scr <= d.Device.smem_per_smx
  && Feature_arena.registers_per_thread scr < d.Device.max_registers_per_thread

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
      if fusable scr && fits t scr ~dev:0 then
        { feasible = true; cost = arena_cost t scr ~dev:0; orig_sum }
      else { feasible = false; cost = Float.infinity; orig_sum }

(* Full per-device cost row of a multi-member group: the structural
   prefix once, then the resource check and model call per device.
   Device 0 runs [evaluate]'s code, so it reproduces the primary cost
   bit for bit. *)
let compute_row t group =
  let ndev = Feature_arena.num_devices t.arena in
  let row = Array.make ndev Float.infinity in
  let scr = Feature_arena.load t.arena group in
  if fusable scr then
    for dev = 0 to ndev - 1 do
      if fits t scr ~dev then row.(dev) <- arena_cost t scr ~dev
    done;
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

(* A plan-cache miss on the owned key [psig]. *)
let miss_plan t l psig =
  let total = sum_key t l psig in
  record l.el_plans psig total;
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

(* Fold every domain's private tables into the shared bases.  Must only
   run at a quiescent point: all helpers parked at the pool's generation
   barrier (its mutex handshake publishes the helpers' writes to the
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

(* ---- device portfolio (read after the search, at quiescent points) ----- *)

let portfolio_active t = Feature_arena.num_devices t.arena > 1
let portfolio_devices t = Feature_arena.devices t.arena
let rows_evaluated t = Sig_tbl.count t.rows

(* Per-device cost row of the canonical multi-member group whose key is
   [buf.(start .. stop-1)], through the row table. *)
let row_of_slice t sb buf start stop =
  Sigbuf.reset sb;
  push_slice sb buf start stop;
  match
    Sig_tbl.find_pre t.rows ~buf:(Sigbuf.unsafe_buf sb) ~len:(Sigbuf.length sb)
      ~hash:(Sigbuf.hash sb)
  with
  | Some r -> r
  | None ->
      let key = Sigbuf.extract sb in
      let r = compute_row t (list_of_slice buf start (stop - 1) []) in
      record t.rows key r;
      r

let group_row t group =
  if not (portfolio_active t) then None
  else
    match group with
    | [ k ] ->
        Some
          (Array.init
             (Feature_arena.num_devices t.arena)
             (fun dev -> (Feature_arena.measured_runtime t.arena ~dev).(k)))
    | _ ->
        let key = Array.of_list (List.sort Int.compare group) in
        Some (Array.copy (row_of_slice t (local_of t).el_sb key 0 (Array.length key)))

(* Per-device total of the vertical plan key [key]: its groups' rows
   summed in canonical group order, a one-kernel group costing its
   measured runtime on each device. *)
let plan_costs t sb key =
  let ndev = Feature_arena.num_devices t.arena in
  let costs = Array.make ndev 0. in
  let n = Array.length key in
  let i = ref 0 in
  while !i < n do
    let stop = pack_end key !i n in
    if stop - !i = 1 then
      for dev = 0 to ndev - 1 do
        costs.(dev) <- costs.(dev) +. (Feature_arena.measured_runtime t.arena ~dev).(key.(!i))
      done
    else begin
      let r = row_of_slice t sb key !i stop in
      for dev = 0 to ndev - 1 do
        costs.(dev) <- costs.(dev) +. r.(dev)
      done
    end;
    i := stop + 1
  done;
  costs

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

(* Fold one plan (cost vector, key) into the non-dominated set.  The
   result is independent of fold order: dominance is transitive, and
   equal cost vectors are deduplicated to the lexicographically smallest
   plan key. *)
let front_add front (costs, key) =
  let shadowed (c, k) = dominates c costs || (c = costs && Stdlib.compare k key <= 0) in
  if List.exists shadowed front then front
  else
    (costs, key)
    :: List.filter
         (fun (c, k) -> (not (dominates costs c)) && not (c = costs && Stdlib.compare key k < 0))
         front

(* The front over the merged plan table: every key without a [-3] plane
   separator is a vertical plan the search evaluated.  Keys stream
   through the fold; only the survivors are decoded, in (cost vector,
   key) order. *)
let pareto_front t =
  if not (portfolio_active t) then []
  else begin
    merge_locals t;
    let sb = (local_of t).el_sb in
    let front = ref [] in
    Sig_tbl.iter
      (fun key ~hash:_ _ ->
        if not (has_planes key 0 (Array.length key)) then
          front := front_add !front (plan_costs t sb key, key))
      t.plans;
    List.map
      (fun (costs, key) -> { pf_plan = List.concat (Sigbuf.decode key); pf_costs = costs })
      (List.sort Stdlib.compare !front)
  end

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
