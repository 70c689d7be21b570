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

type kind = Simple | Complex

type segment = {
  kernel : int;
  barrier_before : bool;
  halo_producer : bool;
  halo_depth : int;
}

type t = {
  name : string;
  members : int list;
  segments : segment list;
  kind : kind;
  pivot : int list;
  register_reuse : int list;
  ro_staged : int list;
  halo_layers : int;
  halo_bytes : int;
  smem_bytes_per_block : int;
  ro_bytes_per_block : int;
  registers_per_thread : int;
  vertical_hazard : bool;
}

let group_name p ordered =
  match ordered with
  | [ k ] -> (Program.kernel p k).Kernel.name
  | _ ->
      let ids = List.map string_of_int ordered in
      if List.length ids <= 5 then "F_" ^ String.concat "_" ids
      else
        Printf.sprintf "F_%s..%s_%dk" (List.hd ids)
          (List.nth ids (List.length ids - 1))
          (List.length ids)

let build ~device ~meta ~exec ~group =
  if group = [] then invalid_arg "Fused.build: empty group";
  if List.length (List.sort_uniq compare group) <> List.length group then
    invalid_arg "Fused.build: duplicate member";
  let p = Metadata.program meta in
  let grid = p.Program.grid in
  let ordered = Exec_order.group_order exec group in
  let member_set = Hashtbl.create 8 in
  List.iteri (fun pos k -> Hashtbl.replace member_set k pos) ordered;
  let pos_of k = Hashtbl.find member_set k in
  let dd = Exec_order.datadep exec in
  (* Internal flow edges: producer and consumer both in the group, producer
     aggregated earlier. *)
  let internal_flow =
    List.filter
      (fun (e : Datadep.edge) ->
        e.kind = Datadep.Flow && Hashtbl.mem member_set e.src && Hashtbl.mem member_set e.dst
        && pos_of e.src < pos_of e.dst)
      (Datadep.edges dd)
  in
  let barrier_before = Array.make (List.length ordered) false in
  List.iter (fun (e : Datadep.edge) -> barrier_before.(pos_of e.dst) <- true) internal_flow;
  let kind = if Array.exists (fun b -> b) barrier_before then Complex else Simple in
  (* Halo depth: widest radius a consumer applies to internally produced
     data (paper: "the stencil operation with the widest radius"). *)
  let consumer_radius e =
    match Kernel.access_for (Program.kernel p e.Datadep.dst) e.Datadep.array with
    | Some a when Access.reads a -> Stencil.radius a.pattern
    | _ -> 0
  in
  (* Internally produced data read through a vertical stencil cannot be
     served by the per-plane SMEM tiles: the producer's k+1 plane does not
     exist yet when the consumer's k plane runs. *)
  let vertical_hazard =
    List.exists
      (fun (e : Datadep.edge) ->
        match Kernel.access_for (Program.kernel p e.Datadep.dst) e.Datadep.array with
        | Some a when Access.reads a -> Stencil.vertical_extent a.pattern > 0
        | _ -> false)
      internal_flow
  in
  (* Per-segment ring depth (temporal blocking): consumers' radii
     accumulate backwards along internal flow chains — to hand a depth-d
     ring to a consumer reading with radius r, the producer must compute a
     depth d+r ring, which in turn needs its own inputs at that depth.
     This is a longest-path computation over the (acyclic) internal flow
     edges. *)
  let depth = Array.make (List.length ordered) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (e : Datadep.edge) ->
        let need = depth.(pos_of e.dst) + consumer_radius e in
        if need > depth.(pos_of e.src) then begin
          depth.(pos_of e.src) <- need;
          changed := true
        end)
      internal_flow
  done;
  let halo_layers = Array.fold_left max 0 depth in
  let segments =
    List.mapi
      (fun pos k ->
        {
          kernel = k;
          barrier_before = barrier_before.(pos);
          halo_producer = depth.(pos) > 0;
          halo_depth = depth.(pos);
        })
      ordered
  in
  (* Pivot: arrays touched by at least two members. *)
  let touch_count = Hashtbl.create 16 in
  List.iter
    (fun k ->
      List.iter
        (fun a ->
          let c = try Hashtbl.find touch_count a with Not_found -> 0 in
          Hashtbl.replace touch_count a (c + 1))
        (Kernel.arrays (Program.kernel p k)))
    ordered;
  let pivot_all =
    Hashtbl.fold (fun a c acc -> if c >= 2 then a :: acc else acc) touch_count []
    |> List.sort compare
  in
  let max_load a =
    List.fold_left (fun acc k -> max acc (Kernel.thread_load (Program.kernel p k) a)) 0 ordered
  in
  let internally_produced a =
    List.exists (fun (e : Datadep.edge) -> e.array = a) internal_flow
  in
  let staged_all, register_reuse =
    List.partition (fun a -> max_load a > 1 || (internally_produced a && halo_layers > 0)) pivot_all
  in
  (* Program-wide read-only pivot arrays can ride the read-only data cache
     when the device allows it, relieving SMEM (paper §II-C). *)
  let ro_staged, staged =
    if device.Device.use_readonly_cache then
      List.partition
        (fun a -> Datadep.array_class dd a = Datadep.Read_only)
        staged_all
    else ([], staged_all)
  in
  (* Per-segment private staging (a member's own >1-thread-load arrays that
     are not pivot): the buffer is reusable between segments, so only the
     largest segment's requirement counts. *)
  let thr = Grid.threads_per_block grid in
  let tile_bytes a = thr * (Program.array p a).Array_info.elem_bytes in
  let ring_bytes a =
    Grid.halo_sites_per_plane grid halo_layers * (Program.array p a).Array_info.elem_bytes
  in
  (* Externally-fetched pivot arrays keep the originals' double-buffered
     staging (two tiles); internally-produced ones cannot be prefetched
     and need a single tile.  Complex fusions add a halo ring per staged
     array. *)
  let externally_fetched a =
    let rec scan = function
      | [] -> false
      | k :: rest -> begin
          match Kernel.access_for (Program.kernel p k) a with
          | Some acc when Access.reads acc -> true
          | Some acc when Access.writes acc -> false
          | _ -> scan rest
        end
    in
    scan ordered
  in
  let pivot_bytes =
    List.fold_left
      (fun acc a ->
        acc
        + (tile_bytes a * if externally_fetched a then 2 else 1)
        + if kind = Complex then ring_bytes a else 0)
      0 staged
  in
  let private_bytes =
    List.fold_left
      (fun acc k ->
        let own =
          List.filter
            (fun a -> not (List.mem a staged))
            (Kernel.smem_staged_arrays (Program.kernel p k))
        in
        max acc (List.fold_left (fun b a -> b + tile_bytes a) 0 own))
      0 ordered
  in
  let used = pivot_bytes + private_bytes in
  (* Bank-conflict padding: the 1/32 factor of paper Eq. 7's B_conf. *)
  let padding = used / device.Device.smem_banks in
  let smem_bytes_per_block = used + padding in
  let ro_bytes_per_block =
    List.fold_left
      (fun acc a ->
        acc + (tile_bytes a * 2) + if kind = Complex then ring_bytes a else 0)
      0 ro_staged
  in
  let halo_bytes =
    if halo_layers = 0 then 0
    else begin
      let elem =
        List.fold_left
          (fun acc a -> max acc (Program.array p a).Array_info.elem_bytes)
          (Device.elem_size device) staged
      in
      Grid.halo_sites_per_plane grid halo_layers * elem
    end
  in
  (* Register estimate for the new kernel, mirroring paper Eqns. 4-6:
     base pressure of the heaviest member, blocking registers for the
     widest pivot thread load, one fetch register (+halo share), one
     register per register-reuse array, and extra addressing for the halo
     arithmetic. *)
  let base = List.fold_left (fun acc k -> max acc (Program.kernel p k).Kernel.registers_per_thread) 0 ordered in
  let h_th = if halo_bytes = 0 then 0 else (halo_bytes + thr - 1) / thr in
  (* Blocking registers accumulate across all staged arrays (each keeps its
     stencil neighborhood partially live, Eq. 4), and every extra aggregated
     segment keeps intermediate values live across its boundary. *)
  let reg_block =
    let total_load = List.fold_left (fun acc a -> acc + max_load a) 0 staged in
    int_of_float (ceil (device.Device.reg_reuse_factor *. float_of_int total_load))
  in
  let live_across_segments = 10 * (List.length ordered - 1) in
  let registers_per_thread =
    min device.Device.max_registers_per_thread
      (base + reg_block + live_across_segments + 1 + h_th + List.length register_reuse
      + if kind = Complex then 2 else 0)
  in
  {
    name = group_name p ordered;
    members = ordered;
    segments;
    kind;
    pivot = List.sort compare (staged @ ro_staged @ register_reuse);
    register_reuse;
    ro_staged = List.sort compare ro_staged;
    halo_layers;
    halo_bytes;
    smem_bytes_per_block;
    ro_bytes_per_block;
    registers_per_thread;
    vertical_hazard;
  }

let flops_per_site p t =
  List.fold_left (fun acc k -> acc +. Kernel.flops_per_site (Program.kernel p k)) 0. t.members

let halo_extra_flops (p : Program.t) t =
  if t.halo_layers = 0 then 0.
  else begin
    let grid = p.grid in
    List.fold_left
      (fun acc s ->
        if s.halo_depth > 0 then begin
          let ring = Grid.halo_sites_per_plane grid s.halo_depth in
          let sites = float_of_int (ring * grid.nz * Grid.blocks grid) in
          acc +. (Kernel.flops_per_site (Program.kernel p s.kernel) *. sites)
        end
        else acc)
      0. t.segments
  end

let total_flops (p : Program.t) t =
  (flops_per_site p t *. float_of_int (Grid.sites p.grid)) +. halo_extra_flops p t

(* The fold runs in the table's bucket order, but every term is a whole
   number of bytes far below 2^53, so the sum is exact in any order —
   which is what lets [Kf_model.Feature_arena] sum it without a table. *)
let gmem_bytes (p : Program.t) t =
  let grid = p.grid in
  let arrays = Hashtbl.create 16 in
  (* For each array: whether it needs an external fetch (read before any
     internal write), the widest read radius, and whether it is stored. *)
  List.iter
    (fun k ->
      let kern = Program.kernel p k in
      List.iter
        (fun (a : Access.t) ->
          let fetch, radius, written =
            try Hashtbl.find arrays a.array with Not_found -> (false, 0, false)
          in
          let fetch = fetch || (Access.reads a && not written) in
          let radius =
            if Access.reads a then max radius (Stencil.radius a.pattern) else radius
          in
          let written = written || Access.writes a in
          Hashtbl.replace arrays a.array (fetch, radius, written))
        kern.accesses)
    t.members;
  Hashtbl.fold
    (fun a (fetch, radius, written) acc ->
      let info = Program.array p a in
      let footprint = float_of_int (Array_info.bytes info grid) in
      let planes = match info.extent with Array_info.Field3d -> grid.nz | Array_info.Plane2d -> 1 in
      let refetch =
        let r = max radius (if fetch && t.halo_layers > 0 then t.halo_layers else 0) in
        if fetch && r > 0 then
          float_of_int (Grid.blocks grid * Grid.halo_sites_per_plane grid r * planes * info.elem_bytes)
        else 0.
      in
      acc
      +. (if fetch then footprint +. refetch else 0.)
      +. if written then footprint else 0.)
    arrays 0.

let smem_staged_count t =
  List.length
    (List.filter
       (fun a -> not (List.mem a t.register_reuse) && not (List.mem a t.ro_staged))
       t.pivot)

let is_singleton t = match t.members with [ _ ] -> true | _ -> false

let pp ppf t =
  Format.fprintf ppf "%s[%s] %s pivot={%s} halo=%d smem=%dB regs=%d" t.name
    (String.concat "," (List.map string_of_int t.members))
    (match t.kind with Simple -> "simple" | Complex -> "complex")
    (String.concat "," (List.map string_of_int t.pivot))
    t.halo_layers t.smem_bytes_per_block t.registers_per_thread
