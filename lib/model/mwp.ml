module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Access = Kf_ir.Access
module Stencil = Kf_ir.Stencil
module Grid = Kf_ir.Grid
module Fused = Kf_fusion.Fused

type estimate = { cycles : float; mwp : float; cwp : float; runtime_s : float }

(* Per-warp instruction stream of the candidate, reconstructed on every
   evaluation exactly as a code-skeleton tool would: one record per dynamic
   instruction over the full vertical loop. *)
type winstr = Mem | Comp | Sync

let reconstruct_stream (p : Program.t) (f : Fused.t) =
  let grid = p.Program.grid in
  let staged = List.filter (fun a -> not (List.mem a f.Fused.register_reuse)) f.Fused.pivot in
  let per_iter = ref [] in
  let emit x = per_iter := x :: !per_iter in
  List.iter (fun _ -> emit Mem) staged;
  if staged <> [] then emit Sync;
  List.iter
    (fun (s : Fused.segment) ->
      if s.Fused.barrier_before then emit Sync;
      let kern = Program.kernel p s.Fused.kernel in
      List.iter
        (fun (a : Access.t) ->
          if Access.reads a && not (List.mem a.Access.array staged) then
            List.iter (fun _ -> emit Mem) (Stencil.offsets a.Access.pattern))
        kern.Kernel.accesses;
      for _ = 1 to int_of_float (Float.ceil (Kernel.flops_per_site kern)) do
        emit Comp
      done;
      List.iter (fun (a : Access.t) -> if Access.writes a then emit Mem) kern.Kernel.accesses)
    f.Fused.segments;
  let one = List.rev !per_iter in
  (* The full dynamic stream: the vertical loop repeats the body nz times. *)
  List.concat (List.init grid.nz (fun _ -> one))

let evaluate (i : Inputs.t) (f : Fused.t) =
  let d = i.Inputs.device in
  let p = i.Inputs.program in
  let grid = p.Program.grid in
  let stream = reconstruct_stream p f in
  let mem_insts = ref 0 and comp_insts = ref 0 and syncs = ref 0 in
  List.iter
    (fun x ->
      match x with
      | Mem -> incr mem_insts
      | Comp -> incr comp_insts
      | Sync -> incr syncs)
    stream;
  let mem_insts = float_of_int !mem_insts in
  let comp_cycles = float_of_int !comp_insts *. (32. /. Device.flops_per_cycle_smx d) in
  let mem_l = float_of_int d.Device.gmem_latency_cycles in
  let thr = Grid.threads_per_block grid in
  let warps_per_block = (thr + d.Device.warp_size - 1) / d.Device.warp_size in
  let occ =
    (* Resident blocks from the candidate's own resource demand. *)
    let by_smem =
      if f.Fused.smem_bytes_per_block = 0 then d.Device.max_blocks_per_smx
      else d.Device.smem_per_smx / f.Fused.smem_bytes_per_block
    in
    let by_regs = d.Device.registers_per_smx / (thr * f.Fused.registers_per_thread) in
    max 1 (min (min by_smem by_regs) d.Device.max_blocks_per_smx)
  in
  let n = float_of_int (occ * warps_per_block) in
  (* Departure delay: cycles between consecutive memory requests the DRAM
     can absorb from one SM. *)
  let bytes_per_cycle_sm = Device.bytes_per_cycle d /. float_of_int d.Device.smx_count in
  let departure = 128. /. bytes_per_cycle_sm in
  let mwp_bw = mem_l /. departure in
  let mwp = Float.min (Float.min mwp_bw n) (mem_l /. 2.) in
  let mem_cycles = mem_insts *. mem_l in
  let cwp =
    if comp_cycles <= 0. then n
    else Float.min ((mem_cycles +. comp_cycles) /. comp_cycles) n
  in
  let exec_per_warp_set =
    if cwp >= mwp then
      (mem_cycles *. n /. mwp)
      +. (if mem_insts > 0. then comp_cycles /. mem_insts *. (mwp -. 1.) else comp_cycles)
    else mem_cycles +. (comp_cycles *. n)
  in
  let sync_cost = float_of_int !syncs *. n *. 4. in
  let total_blocks = Grid.blocks grid in
  let concurrent = occ * d.Device.smx_count in
  let waves = max 1 ((total_blocks + concurrent - 1) / concurrent) in
  let cycles = (exec_per_warp_set +. sync_cost) *. float_of_int waves in
  { cycles; mwp; cwp; runtime_s = cycles /. (d.Device.clock_ghz *. 1e9) }

let runtime i f = (evaluate i f).runtime_s

(* Allocation-free arena backend: instead of materializing the per-warp
   instruction stream, [Feature_arena.mwp_iter_counts] counts one
   vertical iteration's records and the vertical loop multiplies — the
   same integer totals, then [evaluate]'s arithmetic verbatim. *)
module A = Feature_arena

let arena_runtime scr ~dev =
  let a = A.arena scr in
  if A.member_count scr = 1 then (A.measured_runtime a ~dev).(A.member scr 0)
  else begin
    let d = A.device a dev in
    let nz = A.grid_nz a in
    let mem_i, comp_i, sync_i = A.mwp_iter_counts scr in
    let mem_insts = float_of_int (mem_i * nz) in
    let comp_cycles = float_of_int (comp_i * nz) *. (32. /. Device.flops_per_cycle_smx d) in
    let mem_l = float_of_int d.Device.gmem_latency_cycles in
    let thr = A.grid_threads a in
    let warps_per_block = (thr + d.Device.warp_size - 1) / d.Device.warp_size in
    let occ =
      let smem = A.smem_bytes_per_block scr in
      let by_smem =
        if smem = 0 then d.Device.max_blocks_per_smx else d.Device.smem_per_smx / smem
      in
      let by_regs = d.Device.registers_per_smx / (thr * A.registers_per_thread scr) in
      max 1 (min (min by_smem by_regs) d.Device.max_blocks_per_smx)
    in
    let n = float_of_int (occ * warps_per_block) in
    let bytes_per_cycle_sm = Device.bytes_per_cycle d /. float_of_int d.Device.smx_count in
    let departure = 128. /. bytes_per_cycle_sm in
    let mwp_bw = mem_l /. departure in
    let mwp = Float.min (Float.min mwp_bw n) (mem_l /. 2.) in
    let mem_cycles = mem_insts *. mem_l in
    let cwp =
      if comp_cycles <= 0. then n
      else Float.min ((mem_cycles +. comp_cycles) /. comp_cycles) n
    in
    let exec_per_warp_set =
      if cwp >= mwp then
        (mem_cycles *. n /. mwp)
        +. (if mem_insts > 0. then comp_cycles /. mem_insts *. (mwp -. 1.) else comp_cycles)
      else mem_cycles +. (comp_cycles *. n)
    in
    let sync_cost = float_of_int (sync_i * nz) *. n *. 4. in
    let total_blocks = A.grid_blocks a in
    let concurrent = occ * d.Device.smx_count in
    let waves = max 1 ((total_blocks + concurrent - 1) / concurrent) in
    let cycles = (exec_per_warp_set +. sync_cost) *. float_of_int waves in
    cycles /. (d.Device.clock_ghz *. 1e9)
  end
