module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Access = Kf_ir.Access
module Stencil = Kf_ir.Stencil
module Grid = Kf_ir.Grid
module Metadata = Kf_ir.Metadata
module Array_info = Kf_ir.Array_info
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Dag = Kf_graph.Dag
module Fused = Kf_fusion.Fused
module Bitset = Kf_util.Bitset

(* Structure-of-arrays arena: every immutable per-kernel / per-array /
   per-edge feature the projection models read (paper Table III) is
   precomputed once per program into flat int/float arrays, and group
   evaluation becomes index arithmetic over per-domain scratch buffers.

   Bit-identity discipline: every float accumulation below replays the
   legacy code's fold order (member traversal in execution order, the
   same operator association), integer quantities are order-insensitive
   (max/sum over the same multiset), the structural predicates are
   boolean-identical reformulations, and the one aggregation whose float
   order is an implementation artifact (the per-array GMEM traffic
   hashtable fold of {!Fused.gmem_bytes}) sums whole numbers, exactly,
   in any order. *)

type t = {
  devices : Device.t array;
  program : Program.t;
  nk : int;
  na : int;
  thr : int;
  blocks : int;
  nz : int;
  sites : int;
  grid : Grid.t;
  rank : int array;  (* position of each kernel in the full group order *)
  sync_le : int array;  (* #sync points <= k, per kernel id *)
  has_syncs : bool;
  kin : Bitset.t array;  (* per-kernel kinship neighbors *)
  desc : Bitset.t array;  (* per-kernel DAG descendants *)
  anc : Bitset.t array;  (* per-kernel DAG ancestors *)
  (* flow edges, program edge-list order *)
  fe_src : int array;
  fe_dst : int array;
  fe_arr : int array;
  fe_radius : int array;  (* consumer read radius (0 when not reading) *)
  fe_vert : bool array;  (* consumer reads with vertical extent > 0 *)
  fe_out_off : int array;  (* CSR: each kernel's flow edges as producer *)
  fe_out : int array;
  (* per kernel *)
  k_regs : int array;
  k_fps : float array;
  k_fps_ceil : int array;  (* ceil of flops/site: MWP Comp slots *)
  k_active : int array;  (* active threads per block *)
  k_arrays_off : int array;  (* CSR: arrays the kernel touches (access order) *)
  k_arrays : int array;
  k_smem_off : int array;  (* CSR: the kernel's own SMEM-staged arrays *)
  k_smem : int array;
  k_reads_off : int array;  (* CSR: read accesses as (array, stencil points) *)
  k_reads_arr : int array;
  k_reads_np : int array;
  k_writes : int array;  (* number of writing accesses *)
  (* per (kernel, array), dense [k * na + a] *)
  kl_load : int array;  (* thread load *)
  kl_acc : int array;  (* 0 = no access, 1 = reads (incl. RW), 2 = writes only *)
  kl_radius : int array;  (* read stencil radius (0 when not reading) *)
  kl_writes : bool array;  (* writes (incl. RW) *)
  (* per array *)
  a_elem : int array;
  a_tile : int array;  (* threads_per_block * elem_bytes *)
  a_ro : bool array;  (* program-wide read-only (read-only-cache eligible) *)
  a_footprint : float array;  (* [Array_info.bytes] on the grid *)
  a_planes : int array;  (* z planes: the grid's for 3-D fields, 1 for planes *)
  (* per device *)
  runtime : float array array;  (* measured kernel runtimes, [dev].(k) *)
  bytes : float array array;  (* measured kernel GMEM traffic, [dev].(k) *)
  reg_lock : Mutex.t;  (* guards [scratches] registration *)
  mutable scratches : (int * scratch) list;  (* keyed by domain id *)
}

(* Per-domain scratch: stamped arrays (an [epoch] bump empties every set
   in O(1)) plus the mutable scalars one group evaluation produces.
   Touched only by its owning domain. *)
and scratch = {
  ar : t;
  mutable epoch : int;
  mutable m_count : int;
  members : int array;  (* sorted at [load]; execution order after [analyze] *)
  k_stamp : int array;  (* membership marker *)
  k_pos : int array;  (* position of a member in [members] *)
  seen : Bitset.t;  (* kinship BFS: visited, frontier, next frontier *)
  front : Bitset.t;
  next_front : Bitset.t;
  internal : int array;  (* the group's internal flow edges *)
  mutable internal_n : int;
  u_desc : Bitset.t;
  u_anc : Bitset.t;
  mem_bs : Bitset.t;
  (* analyze results (device-independent) *)
  barrier : bool array;  (* per member position *)
  depth : int array;  (* per member position: halo ring depth *)
  mutable complex : bool;
  mutable halo_layers : int;
  mutable vertical_hazard : bool;
  mutable n_barriers : int;
  a_stamp : int array;  (* array-touched marker *)
  a_count : int array;  (* touches by members *)
  a_load : int array;  (* max thread load over members *)
  prod_stamp : int array;  (* internally-produced marker *)
  ext_stamp : int array;
  ext_val : bool array;  (* externally fetched (valid for staged_all) *)
  stall_stamp : int array;  (* staged_all membership marker *)
  piv : int array;  (* pivot arrays, ascending id *)
  mutable piv_n : int;
  stall : int array;  (* staged_all = pivot \ register_reuse, ascending *)
  mutable stall_n : int;
  mutable rr_n : int;  (* |register_reuse| *)
  mutable t_b : int;
  mutable base_regs : int;
  mutable tflops : float;
  mutable gmem : float;
  g_stamp : int array;  (* array touched by the group, for [gmem_bytes] *)
  g_fetch : bool array;
  g_radius : int array;
  g_written : bool array;
  g_keys : int array;
  mutable gmem_epoch : int;  (* lazy-memo validity marker *)
  (* fuse results (device-dependent, overwritten per [fuse]) *)
  mutable fuse_tick : int;
  s_stamp : int array;  (* SMEM-staged membership marker for current fuse *)
  staged : int array;
  mutable staged_n : int;
  ro : int array;
  mutable ro_n : int;
  mutable smem_bytes : int;
  mutable ro_bytes : int;
  mutable halo_b : int;
  mutable registers : int;
}

let create (primary : Inputs.t) ~extra =
  List.iter
    (fun (ex : Inputs.t) ->
      if ex.Inputs.program != primary.Inputs.program then
        invalid_arg
          "Feature_arena.create: every device's inputs must be built over the same \
           program value")
    extra;
  let inputs = Array.of_list (primary :: extra) in
  let program = primary.Inputs.program in
  let meta = primary.Inputs.meta in
  let exec = primary.Inputs.exec in
  let nk = Program.num_kernels program in
  let na = Program.num_arrays program in
  let grid = program.Program.grid in
  let thr = Grid.threads_per_block grid in
  let rank = Array.make nk 0 in
  List.iteri (fun i k -> rank.(k) <- i) (Exec_order.group_order exec (List.init nk Fun.id));
  let syncs = Exec_order.sync_points exec in
  let sync_le = Array.make (max nk 1) 0 in
  List.iter (fun s -> if s >= 0 && s < nk then sync_le.(s) <- sync_le.(s) + 1) syncs;
  for i = 1 to nk - 1 do
    sync_le.(i) <- sync_le.(i) + sync_le.(i - 1)
  done;
  let dag = Exec_order.dag exec in
  let dd = Exec_order.datadep exec in
  let flows =
    List.filter (fun (e : Datadep.edge) -> e.kind = Datadep.Flow) (Datadep.edges dd)
  in
  let ne = List.length flows in
  let fe_src = Array.make (max ne 1) 0
  and fe_dst = Array.make (max ne 1) 0
  and fe_arr = Array.make (max ne 1) 0
  and fe_radius = Array.make (max ne 1) 0
  and fe_vert = Array.make (max ne 1) false in
  List.iteri
    (fun i (e : Datadep.edge) ->
      fe_src.(i) <- e.src;
      fe_dst.(i) <- e.dst;
      fe_arr.(i) <- e.array;
      (match Kernel.access_for (Program.kernel program e.dst) e.array with
      | Some a when Access.reads a ->
          fe_radius.(i) <- Stencil.radius a.pattern;
          fe_vert.(i) <- Stencil.vertical_extent a.pattern > 0
      | _ -> ()))
    flows;
  let csr per_kernel =
    let off = Array.make (nk + 1) 0 in
    for k = 0 to nk - 1 do
      off.(k + 1) <- off.(k) + List.length (per_kernel k)
    done;
    let dat = Array.make (max off.(nk) 1) 0 in
    for k = 0 to nk - 1 do
      List.iteri (fun i x -> dat.(off.(k) + i) <- x) (per_kernel k)
    done;
    (off, dat)
  in
  let fe_out_off = Array.make (nk + 1) 0 in
  for i = 0 to ne - 1 do
    fe_out_off.(fe_src.(i) + 1) <- fe_out_off.(fe_src.(i) + 1) + 1
  done;
  for k = 0 to nk - 1 do
    fe_out_off.(k + 1) <- fe_out_off.(k + 1) + fe_out_off.(k)
  done;
  let fe_out = Array.make (max ne 1) 0 and fill = Array.sub fe_out_off 0 (max nk 1) in
  for i = 0 to ne - 1 do
    fe_out.(fill.(fe_src.(i))) <- i;
    fill.(fe_src.(i)) <- fill.(fe_src.(i)) + 1
  done;
  let k_arrays_off, k_arrays = csr (fun k -> Kernel.arrays (Program.kernel program k)) in
  let k_smem_off, k_smem =
    csr (fun k -> Kernel.smem_staged_arrays (Program.kernel program k))
  in
  let reads k =
    List.filter (fun (a : Access.t) -> Access.reads a)
      (Program.kernel program k).Kernel.accesses
  in
  let k_reads_off, k_reads_arr = csr (fun k -> List.map (fun (a : Access.t) -> a.array) (reads k)) in
  let _, k_reads_np =
    csr (fun k -> List.map (fun (a : Access.t) -> Stencil.num_points a.pattern) (reads k))
  in
  let kl_load = Array.make (max (nk * na) 1) 0 in
  let kl_acc = Array.make (max (nk * na) 1) 0 in
  let kl_radius = Array.make (max (nk * na) 1) 0 in
  let kl_writes = Array.make (max (nk * na) 1) false in
  for k = 0 to nk - 1 do
    let kern = Program.kernel program k in
    for a = 0 to na - 1 do
      kl_load.((k * na) + a) <- Kernel.thread_load kern a;
      match Kernel.access_for kern a with
      | Some acc ->
          kl_acc.((k * na) + a) <-
            (if Access.reads acc then 1 else if Access.writes acc then 2 else 0);
          if Access.reads acc then kl_radius.((k * na) + a) <- Stencil.radius acc.Access.pattern;
          kl_writes.((k * na) + a) <- Access.writes acc
      | None -> ()
    done
  done;
  {
    devices = Array.map (fun (i : Inputs.t) -> i.Inputs.device) inputs;
    program;
    nk;
    na;
    thr;
    blocks = Grid.blocks grid;
    nz = grid.Grid.nz;
    sites = Grid.sites grid;
    grid;
    rank;
    sync_le;
    has_syncs = syncs <> [];
    kin = Array.init nk (fun k -> Bitset.of_list nk (Metadata.kin_neighbors meta k));
    desc = Array.init nk (fun u -> Dag.descendants dag u);
    anc = Array.init nk (fun u -> Dag.ancestors dag u);
    fe_src;
    fe_dst;
    fe_arr;
    fe_radius;
    fe_vert;
    fe_out_off;
    fe_out;
    k_regs =
      Array.init nk (fun k -> (Program.kernel program k).Kernel.registers_per_thread);
    k_fps = Array.init nk (fun k -> Kernel.flops_per_site (Program.kernel program k));
    k_fps_ceil =
      Array.init nk (fun k ->
          int_of_float (Float.ceil (Kernel.flops_per_site (Program.kernel program k))));
    k_active = Array.init nk (fun k -> Kernel.active_threads (Program.kernel program k) grid);
    k_arrays_off;
    k_arrays;
    k_smem_off;
    k_smem;
    k_reads_off;
    k_reads_arr;
    k_reads_np;
    k_writes =
      Array.init nk (fun k ->
          List.length
            (List.filter
               (fun (a : Access.t) -> Access.writes a)
               (Program.kernel program k).Kernel.accesses));
    kl_load;
    kl_acc;
    kl_radius;
    kl_writes;
    a_elem = Array.init na (fun a -> (Program.array program a).Array_info.elem_bytes);
    a_tile =
      Array.init na (fun a -> thr * (Program.array program a).Array_info.elem_bytes);
    a_ro = Array.init na (fun a -> Datadep.array_class dd a = Datadep.Read_only);
    a_footprint = Array.init na (fun a -> float_of_int (Array_info.bytes (Program.array program a) grid));
    a_planes =
      Array.init na (fun a ->
          match (Program.array program a).Array_info.extent with
          | Array_info.Field3d -> grid.Grid.nz
          | Array_info.Plane2d -> 1);
    runtime = Array.map (fun (i : Inputs.t) -> i.Inputs.measured_runtime) inputs;
    bytes = Array.map (fun (i : Inputs.t) -> i.Inputs.measured_bytes) inputs;
    reg_lock = Mutex.create ();
    scratches = [];
  }

let num_devices t = Array.length t.devices
let device t dev = t.devices.(dev)
let devices t = Array.copy t.devices
let program t = t.program
let kin_rows t = t.kin
let descendants t = t.desc
let ancestors t = t.anc
let measured_runtime t ~dev = t.runtime.(dev)
let measured_bytes t ~dev = t.bytes.(dev)

let make_scratch t =
  {
    ar = t;
    epoch = 0;
    m_count = 0;
    members = Array.make (max t.nk 1) 0;
    k_stamp = Array.make (max t.nk 1) (-1);
    k_pos = Array.make (max t.nk 1) 0;
    seen = Bitset.create t.nk;
    front = Bitset.create t.nk;
    next_front = Bitset.create t.nk;
    internal = Array.make (max (Array.length t.fe_src) 1) 0;
    internal_n = 0;
    u_desc = Bitset.create t.nk;
    u_anc = Bitset.create t.nk;
    mem_bs = Bitset.create t.nk;
    barrier = Array.make (max t.nk 1) false;
    depth = Array.make (max t.nk 1) 0;
    complex = false;
    halo_layers = 0;
    vertical_hazard = false;
    n_barriers = 0;
    a_stamp = Array.make (max t.na 1) (-1);
    a_count = Array.make (max t.na 1) 0;
    a_load = Array.make (max t.na 1) 0;
    prod_stamp = Array.make (max t.na 1) (-1);
    ext_stamp = Array.make (max t.na 1) (-1);
    ext_val = Array.make (max t.na 1) false;
    stall_stamp = Array.make (max t.na 1) (-1);
    piv = Array.make (max t.na 1) 0;
    piv_n = 0;
    stall = Array.make (max t.na 1) 0;
    stall_n = 0;
    rr_n = 0;
    t_b = 0;
    base_regs = 0;
    tflops = 0.;
    gmem = 0.;
    g_stamp = Array.make (max t.na 1) (-1);
    g_fetch = Array.make (max t.na 1) false;
    g_radius = Array.make (max t.na 1) 0;
    g_written = Array.make (max t.na 1) false;
    g_keys = Array.make (max t.na 1) 0;
    gmem_epoch = -1;
    fuse_tick = 0;
    s_stamp = Array.make (max t.na 1) (-1);
    staged = Array.make (max t.na 1) 0;
    staged_n = 0;
    ro = Array.make (max t.na 1) 0;
    ro_n = 0;
    smem_bytes = 0;
    ro_bytes = 0;
    halo_b = 0;
    registers = 0;
  }

(* Same registration discipline as [Objective.local_of]: the list is
   immutable (registration conses a new head under the lock), a domain
   always sees its own entry, and missing concurrent entries only mean
   this walk does not find them. *)
let local_of t =
  let did = (Domain.self () :> int) in
  let rec find = function
    | [] -> None
    | (d, s) :: tl -> if d = did then Some s else find tl
  in
  match find t.scratches with
  | Some s -> s
  | None ->
      let s = make_scratch t in
      Mutex.lock t.reg_lock;
      t.scratches <- (did, s) :: t.scratches;
      Mutex.unlock t.reg_lock;
      s

let load t group =
  if group = [] then invalid_arg "Feature_arena.load: empty group";
  let scr = local_of t in
  scr.epoch <- scr.epoch + 1;
  let m = ref 0 in
  List.iter
    (fun k ->
      scr.members.(!m) <- k;
      scr.k_stamp.(k) <- scr.epoch;
      incr m)
    group;
  scr.m_count <- !m;
  scr

(* --- structural predicates (boolean-identical to the legacy checks) --- *)

(* Breadth-first over kinship rows, a whole frontier at a time: the
   next frontier is the members not yet seen among the frontier's kin
   neighbors. *)
let add_kin scr k = Bitset.union_into scr.next_front scr.ar.kin.(k)

let connected scr =
  let m = scr.m_count in
  if m <= 1 then true
  else begin
    Bitset.clear scr.mem_bs;
    for i = 0 to m - 1 do
      Bitset.add scr.mem_bs scr.members.(i)
    done;
    Bitset.clear scr.seen;
    Bitset.add scr.seen scr.members.(0);
    Bitset.clear scr.front;
    Bitset.add scr.front scr.members.(0);
    let grew = ref true in
    while !grew do
      Bitset.clear scr.next_front;
      Bitset.iter_with add_kin scr scr.front;
      Bitset.inter_into scr.next_front scr.mem_bs;
      Bitset.diff_into scr.next_front scr.seen;
      grew := not (Bitset.is_empty scr.next_front);
      Bitset.union_into scr.seen scr.next_front;
      Bitset.clear scr.front;
      Bitset.union_into scr.front scr.next_front
    done;
    Bitset.cardinal scr.seen = m
  end

let spans_sync scr =
  let t = scr.ar in
  if (not t.has_syncs) || scr.m_count <= 1 then false
  else begin
    (* A sync point s splits the group iff some member <= s and some
       member > s, i.e. a sync point lies in [min, max-1]. *)
    let min_m = ref scr.members.(0) and max_m = ref scr.members.(0) in
    for i = 1 to scr.m_count - 1 do
      let k = scr.members.(i) in
      if k < !min_m then min_m := k;
      if k > !max_m then max_m := k
    done;
    let cnt i = if i < 0 then 0 else t.sync_le.(i) in
    cnt (!max_m - 1) - cnt (!min_m - 1) > 0
  end

let convex scr =
  if scr.m_count <= 1 then true
  else begin
    let t = scr.ar in
    Bitset.clear scr.u_desc;
    Bitset.clear scr.u_anc;
    Bitset.clear scr.mem_bs;
    for i = 0 to scr.m_count - 1 do
      let k = scr.members.(i) in
      Bitset.union_into scr.u_desc t.desc.(k);
      Bitset.union_into scr.u_anc t.anc.(k);
      Bitset.add scr.mem_bs k
    done;
    (* A violator is a non-member reachable from a member that also
       reaches a member: it lies on some member-to-member path. *)
    not (Bitset.intersects_outside scr.u_desc scr.u_anc ~outside:scr.mem_bs)
  end

(* --- device-independent group analysis ------------------------------- *)

let analyze scr =
  let t = scr.ar in
  let e = scr.epoch in
  let m = scr.m_count in
  (* Execution order: insertion sort by full-graph topological rank
     (group_order's sort key). *)
  for i = 1 to m - 1 do
    let k = scr.members.(i) in
    let r = t.rank.(k) in
    let j = ref (i - 1) in
    while !j >= 0 && t.rank.(scr.members.(!j)) > r do
      scr.members.(!j + 1) <- scr.members.(!j);
      decr j
    done;
    scr.members.(!j + 1) <- k
  done;
  for i = 0 to m - 1 do
    scr.k_pos.(scr.members.(i)) <- i;
    scr.barrier.(i) <- false;
    scr.depth.(i) <- 0
  done;
  scr.vertical_hazard <- false;
  (* The internal flow edges, found from the members' producer lists:
     the flags and the depth fixpoint below do not depend on the order
     edges are visited in. *)
  scr.internal_n <- 0;
  for i = 0 to m - 1 do
    let k = scr.members.(i) in
    for j = t.fe_out_off.(k) to t.fe_out_off.(k + 1) - 1 do
      let ei = t.fe_out.(j) in
      let d = t.fe_dst.(ei) in
      if scr.k_stamp.(d) = e && i < scr.k_pos.(d) then begin
        scr.internal.(scr.internal_n) <- ei;
        scr.internal_n <- scr.internal_n + 1
      end
    done
  done;
  for j = 0 to scr.internal_n - 1 do
    let ei = scr.internal.(j) in
    scr.barrier.(scr.k_pos.(t.fe_dst.(ei))) <- true;
    if t.fe_vert.(ei) then scr.vertical_hazard <- true;
    scr.prod_stamp.(t.fe_arr.(ei)) <- e
  done;
  let nb = ref 0 in
  for i = 0 to m - 1 do
    if scr.barrier.(i) then incr nb
  done;
  scr.n_barriers <- !nb;
  scr.complex <- !nb > 0;
  (* Ring depth: the longest path over internal flow edges.  The edges
     are listed by producer in execution order and each one points
     forward, so one backward pass sees every consumer's final depth
     before its producer's. *)
  for j = scr.internal_n - 1 downto 0 do
    let ei = scr.internal.(j) in
    let need = scr.depth.(scr.k_pos.(t.fe_dst.(ei))) + t.fe_radius.(ei) in
    let ps = scr.k_pos.(t.fe_src.(ei)) in
    if need > scr.depth.(ps) then scr.depth.(ps) <- need
  done;
  let hl = ref 0 in
  for i = 0 to m - 1 do
    if scr.depth.(i) > !hl then hl := scr.depth.(i)
  done;
  scr.halo_layers <- !hl;
  (* Touch counts and per-array max thread load. *)
  for i = 0 to m - 1 do
    let k = scr.members.(i) in
    for j = t.k_arrays_off.(k) to t.k_arrays_off.(k + 1) - 1 do
      let a = t.k_arrays.(j) in
      let ld = t.kl_load.((k * t.na) + a) in
      if scr.a_stamp.(a) <> e then begin
        scr.a_stamp.(a) <- e;
        scr.a_count.(a) <- 1;
        scr.a_load.(a) <- ld
      end
      else begin
        scr.a_count.(a) <- scr.a_count.(a) + 1;
        if ld > scr.a_load.(a) then scr.a_load.(a) <- ld
      end
    done
  done;
  (* Pivot (>= 2 touches, ascending id) and its device-independent
     partition into staged_all vs register_reuse. *)
  scr.piv_n <- 0;
  scr.stall_n <- 0;
  scr.rr_n <- 0;
  for a = 0 to t.na - 1 do
    if scr.a_stamp.(a) = e && scr.a_count.(a) >= 2 then begin
      scr.piv.(scr.piv_n) <- a;
      scr.piv_n <- scr.piv_n + 1;
      if scr.a_load.(a) > 1 || (scr.prod_stamp.(a) = e && scr.halo_layers > 0) then begin
        scr.stall.(scr.stall_n) <- a;
        scr.stall_stamp.(a) <- e;
        scr.stall_n <- scr.stall_n + 1
      end
      else scr.rr_n <- scr.rr_n + 1
    end
  done;
  (* Externally fetched: first touch in execution order reads (not
     writes).  Needed for every SMEM-staging candidate. *)
  for si = 0 to scr.stall_n - 1 do
    let a = scr.stall.(si) in
    let v = ref false in
    (try
       for i = 0 to m - 1 do
         match t.kl_acc.((scr.members.(i) * t.na) + a) with
         | 1 ->
             v := true;
             raise Exit
         | 2 -> raise Exit
         | _ -> ()
       done
     with Exit -> ());
    scr.ext_stamp.(a) <- e;
    scr.ext_val.(a) <- !v
  done;
  let tb = ref t.thr and br = ref 0 in
  for i = 0 to m - 1 do
    let k = scr.members.(i) in
    if t.k_active.(k) < !tb then tb := t.k_active.(k);
    if t.k_regs.(k) > !br then br := t.k_regs.(k)
  done;
  scr.t_b <- !tb;
  scr.base_regs <- !br;
  (* Flops: member fold in execution order, then the halo-ring replay
     term per producing segment — the legacy association exactly. *)
  let fps = ref 0. in
  for i = 0 to m - 1 do
    fps := !fps +. t.k_fps.(scr.members.(i))
  done;
  let halo_extra = ref 0. in
  if scr.halo_layers > 0 then
    for i = 0 to m - 1 do
      if scr.depth.(i) > 0 then begin
        let ring = Grid.halo_sites_per_plane t.grid scr.depth.(i) in
        let sites = float_of_int (ring * t.nz * t.blocks) in
        halo_extra := !halo_extra +. (t.k_fps.(scr.members.(i)) *. sites)
      end
    done;
  scr.tflops <- (!fps *. float_of_int t.sites) +. !halo_extra;
  scr.gmem_epoch <- -1

(* {!Fused.gmem_bytes} over the arena: per touched array, whether it
   is fetched (read before any internal write), its widest read radius
   and whether it is stored, then the footprint and halo-refetch sum.
   Every term is a whole number of bytes far below 2^53, so the float sum
   is exact and does not depend on the order arrays are visited in. *)
let gmem_bytes scr =
  if scr.gmem_epoch = scr.epoch then scr.gmem
  else begin
    let t = scr.ar in
    let e = scr.epoch and n = ref 0 in
    for i = 0 to scr.m_count - 1 do
      let k = scr.members.(i) in
      for j = t.k_arrays_off.(k) to t.k_arrays_off.(k + 1) - 1 do
        let a = t.k_arrays.(j) in
        let ka = (k * t.na) + a in
        if scr.g_stamp.(a) <> e then begin
          scr.g_stamp.(a) <- e;
          scr.g_fetch.(a) <- false;
          scr.g_radius.(a) <- 0;
          scr.g_written.(a) <- false;
          scr.g_keys.(!n) <- a;
          incr n
        end;
        if t.kl_acc.(ka) = 1 then begin
          if not scr.g_written.(a) then scr.g_fetch.(a) <- true;
          if t.kl_radius.(ka) > scr.g_radius.(a) then scr.g_radius.(a) <- t.kl_radius.(ka)
        end;
        if t.kl_writes.(ka) then scr.g_written.(a) <- true
      done
    done;
    let g = ref 0. in
    for i = 0 to !n - 1 do
      let a = scr.g_keys.(i) in
      let fetch = scr.g_fetch.(a) and footprint = t.a_footprint.(a) in
      let refetch =
        let r = max scr.g_radius.(a) (if fetch && scr.halo_layers > 0 then scr.halo_layers else 0) in
        if fetch && r > 0 then
          float_of_int (t.blocks * Grid.halo_sites_per_plane t.grid r * t.a_planes.(a) * t.a_elem.(a))
        else 0.
      in
      g :=
        !g
        +. (if fetch then footprint +. refetch else 0.)
        +. if scr.g_written.(a) then footprint else 0.
    done;
    scr.gmem <- !g;
    scr.gmem_epoch <- scr.epoch;
    !g
  end

(* --- per-device fusion features -------------------------------------- *)

let fuse scr ~dev =
  let t = scr.ar in
  let d = t.devices.(dev) in
  scr.fuse_tick <- scr.fuse_tick + 1;
  let tick = scr.fuse_tick in
  scr.staged_n <- 0;
  scr.ro_n <- 0;
  for si = 0 to scr.stall_n - 1 do
    let a = scr.stall.(si) in
    if d.Device.use_readonly_cache && t.a_ro.(a) then begin
      scr.ro.(scr.ro_n) <- a;
      scr.ro_n <- scr.ro_n + 1
    end
    else begin
      scr.staged.(scr.staged_n) <- a;
      scr.s_stamp.(a) <- tick;
      scr.staged_n <- scr.staged_n + 1
    end
  done;
  let hs = Grid.halo_sites_per_plane t.grid scr.halo_layers in
  let complex = scr.complex in
  let pivot_bytes = ref 0 in
  for si = 0 to scr.staged_n - 1 do
    let a = scr.staged.(si) in
    pivot_bytes :=
      !pivot_bytes
      + (t.a_tile.(a) * if scr.ext_val.(a) then 2 else 1)
      + if complex then hs * t.a_elem.(a) else 0
  done;
  let private_bytes = ref 0 in
  for i = 0 to scr.m_count - 1 do
    let k = scr.members.(i) in
    let sum = ref 0 in
    for j = t.k_smem_off.(k) to t.k_smem_off.(k + 1) - 1 do
      let a = t.k_smem.(j) in
      if scr.s_stamp.(a) <> tick then sum := !sum + t.a_tile.(a)
    done;
    if !sum > !private_bytes then private_bytes := !sum
  done;
  let used = !pivot_bytes + !private_bytes in
  scr.smem_bytes <- used + (used / d.Device.smem_banks);
  let rb = ref 0 in
  for ri = 0 to scr.ro_n - 1 do
    let a = scr.ro.(ri) in
    rb := !rb + (t.a_tile.(a) * 2) + if complex then hs * t.a_elem.(a) else 0
  done;
  scr.ro_bytes <- !rb;
  scr.halo_b <-
    (if scr.halo_layers = 0 then 0
     else begin
       let elem = ref (Device.elem_size d) in
       for si = 0 to scr.staged_n - 1 do
         let eb = t.a_elem.(scr.staged.(si)) in
         if eb > !elem then elem := eb
       done;
       hs * !elem
     end);
  let h_th = if scr.halo_b = 0 then 0 else (scr.halo_b + t.thr - 1) / t.thr in
  let total_load = ref 0 in
  for si = 0 to scr.staged_n - 1 do
    total_load := !total_load + scr.a_load.(scr.staged.(si))
  done;
  let reg_block =
    int_of_float (Float.ceil (d.Device.reg_reuse_factor *. float_of_int !total_load))
  in
  let live = 10 * (scr.m_count - 1) in
  scr.registers <-
    min d.Device.max_registers_per_thread
      (scr.base_regs + reg_block + live + 1 + h_th + scr.rr_n
      + if complex then 2 else 0)

(* --- accessors the model backends read ------------------------------- *)

let arena scr = scr.ar
let member_count scr = scr.m_count
let member scr i = scr.members.(i)
let halo_layers scr = scr.halo_layers
let vertical_hazard scr = scr.vertical_hazard
let barrier_count scr = scr.n_barriers
let t_b scr = scr.t_b
let total_flops scr = scr.tflops
let smem_staged_count scr = scr.staged_n
let smem_bytes_per_block scr = scr.smem_bytes
let halo_bytes scr = scr.halo_b
let registers_per_thread scr = scr.registers
let grid_threads t = t.thr
let grid_blocks t = t.blocks
let grid_nz t = t.nz

(* Per-plane-iteration instruction counts of the MWP-CWP stream
   (memory, compute, sync), mirroring [Mwp.reconstruct_stream]: one Mem
   per staged array plus a Sync when any, then per segment a Sync when
   barriered, one Mem per unstaged read stencil point, ceil(flops/site)
   Comps and one Mem per write. *)
let mwp_iter_counts scr =
  let t = scr.ar in
  let e = scr.epoch in
  let mem = ref scr.stall_n and comp = ref 0 and sync = ref 0 in
  if scr.stall_n > 0 then sync := 1;
  for i = 0 to scr.m_count - 1 do
    if scr.barrier.(i) then incr sync;
    let k = scr.members.(i) in
    for j = t.k_reads_off.(k) to t.k_reads_off.(k + 1) - 1 do
      let a = t.k_reads_arr.(j) in
      if scr.stall_stamp.(a) <> e then mem := !mem + t.k_reads_np.(j)
    done;
    comp := !comp + t.k_fps_ceil.(k);
    mem := !mem + t.k_writes.(k)
  done;
  (!mem, !comp, !sync)
