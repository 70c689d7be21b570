module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Grid = Kf_ir.Grid
module Fused = Kf_fusion.Fused

type projection = {
  runtime_s : float;
  p_membound_gflops : float;
  b_sh : float;
  b_eff : float;
  blocks_smx : int;
  registers_per_thread : int;
  smem_bytes : int;
  feasible : bool;
}

let singleton_projection (i : Inputs.t) k =
  {
    runtime_s = i.Inputs.measured_runtime.(k);
    p_membound_gflops = 0.;
    b_sh = 0.;
    b_eff = 0.;
    blocks_smx = 0;
    registers_per_thread = (Program.kernel i.Inputs.program k).Kernel.registers_per_thread;
    smem_bytes = 0;
    feasible = true;
  }

let project (i : Inputs.t) (f : Fused.t) =
  match f.Fused.members with
  | [ k ] -> singleton_projection i k
  | members ->
      let d = i.Inputs.device in
      let p = i.Inputs.program in
      let grid = p.Program.grid in
      let thr = Grid.threads_per_block grid in
      let b = Grid.blocks grid in
      (* T_B: the least active-thread count among the originals. *)
      let t_b =
        List.fold_left (fun acc k -> min acc (Kernel.active_threads (Program.kernel p k) grid))
          thr members
      in
      let staged = Fused.smem_staged_count f in
      let c = if f.Fused.halo_layers > 0 then 1 else 0 in
      let h_th = if thr = 0 then 0 else (f.Fused.halo_bytes + thr - 1) / thr in
      (* Eqns. 4-6: per-thread register demand of the new kernel — the
         heaviest member's base pressure plus blocking registers for the
         widest pivot thread load, the fetch register and the halo share. *)
      (* Eqns. 4-6 register demand: Fused.build already derives it from
         member metadata alone (base pressure + blocking registers +
         fetch/halo shares), so the model reads it off the candidate. *)
      let r_t = f.Fused.registers_per_thread in
      (* Residency (Eqns. 3 and 7). *)
      let smem_bytes = f.Fused.smem_bytes_per_block in
      let by_regs = d.Device.registers_per_smx / (thr * r_t) in
      let by_smem = if smem_bytes = 0 then d.Device.max_blocks_per_smx else d.Device.smem_per_smx / smem_bytes in
      let by_threads = d.Device.max_threads_per_smx / thr in
      let blocks_smx = min (min by_regs by_smem) (min by_threads d.Device.max_blocks_per_smx) in
      let feasible =
        r_t <= d.Device.max_registers_per_thread
        && smem_bytes <= d.Device.smem_per_smx
        && blocks_smx >= 1
      in
      let total_flops = Fused.total_flops p f in
      let warps_per_block = (thr + d.Device.warp_size - 1) / d.Device.warp_size in
      (* Eq. 8's blocking factor, reported as the paper defines it.  The
         printed Eq. 9 (B_eff = B_Sh*SMX/(Thr*B), P = B_eff*BW/8) is not
         scale-invariant — B grows with the grid while B_Sh does not, so
         projected performance would fall quadratically with problem size.
         The runtime bound below therefore reinterprets Eq. 9 in the
         scale-free form the worked example implies: performance is the
         new kernel's operational intensity times the best GMEM rate its
         members demonstrated, attenuated by the latency-hiding loss when
         the fused kernel's resource demand drops the resident-warp count
         below what the DRAM round-trip needs (this is exactly the effect
         B_eff exists to capture). *)
      let b_sh =
        if staged = 0 then 0.
        else float_of_int (t_b * blocks_smx) /. float_of_int ((1 + (c * h_th)) * staged)
      in
      let b_eff = b_sh *. float_of_int d.Device.smx_count /. float_of_int (thr * b) in
      let p_membound =
        if not feasible then 0.
        else begin
          let oi = total_flops /. Fused.gmem_bytes p f in
          (* Best sustained GMEM rate among the originals: the ceiling a
             perfectly latency-hidden fusion of them can stream at. *)
          let bw_base =
            List.fold_left
              (fun acc k ->
                let rt = i.Inputs.measured_runtime.(k) in
                if rt > 0. then Float.max acc (i.Inputs.measured_bytes.(k) /. rt /. 1e9)
                else acc)
              0. members
          in
          let bw_base = if bw_base > 0. then bw_base else d.Device.gmem_bandwidth_gbs in
          (* Warps needed to keep the SMX's share of DRAM busy: outstanding
             128B transactions over the round trip, ~2 in flight per warp. *)
          let w_required =
            Device.bytes_per_cycle d /. float_of_int d.Device.smx_count
            *. float_of_int d.Device.gmem_latency_cycles /. 128. /. 2.
          in
          let w_active = float_of_int (blocks_smx * warps_per_block) in
          let active_frac = float_of_int t_b /. float_of_int thr in
          let e_occ = Float.min 1.0 (w_active *. active_frac /. w_required) in
          let barriers =
            List.length (List.filter (fun s -> s.Fused.barrier_before) f.Fused.segments)
            + if staged > 0 then 1 else 0
          in
          let e_barrier = 1. /. (1. +. (0.02 *. float_of_int barriers)) in
          oi *. bw_base *. e_occ *. e_barrier
        end
      in
      let runtime_s =
        if (not feasible) || p_membound <= 0. then Float.infinity
        else total_flops /. (p_membound *. 1e9)
      in
      {
        runtime_s;
        p_membound_gflops = p_membound;
        b_sh;
        b_eff;
        blocks_smx;
        registers_per_thread = r_t;
        smem_bytes;
        feasible;
      }

let runtime i f = (project i f).runtime_s

(* Per-group entry point for incremental evaluators: project one group of
   a plan in isolation.  Plan cost decomposes as a sum over groups, so a
   caller that knows which groups changed can re-project exactly those and
   reuse cached projections for the rest. *)
let project_group (i : Inputs.t) group =
  let f =
    Fused.build ~device:i.Inputs.device ~meta:i.Inputs.meta ~exec:i.Inputs.exec ~group
  in
  project i f

let group_runtime (i : Inputs.t) group =
  match group with
  | [ k ] -> i.Inputs.measured_runtime.(k)
  | _ -> (project_group i group).runtime_s

(* --- allocation-free arena backend ------------------------------------ *)

module A = Feature_arena

(* The runtime bound only: every float expression below replays the exact
   association of [project] above, reading precomputed features instead of
   a [Fused.t] — and allocates nothing.  [b_sh]/[b_eff] are diagnostic
   outputs that do not feed [runtime_s], so this path skips them. *)
let arena_runtime scr ~dev =
  let a = A.arena scr in
  if A.member_count scr = 1 then (A.measured_runtime a ~dev).(A.member scr 0)
  else begin
    let d = A.device a dev in
    let thr = A.grid_threads a in
    let t_b = A.t_b scr in
    let staged = A.smem_staged_count scr in
    let r_t = A.registers_per_thread scr in
    let smem_bytes = A.smem_bytes_per_block scr in
    let by_regs = d.Device.registers_per_smx / (thr * r_t) in
    let by_smem =
      if smem_bytes = 0 then d.Device.max_blocks_per_smx
      else d.Device.smem_per_smx / smem_bytes
    in
    let by_threads = d.Device.max_threads_per_smx / thr in
    let blocks_smx = min (min by_regs by_smem) (min by_threads d.Device.max_blocks_per_smx) in
    let feasible =
      r_t <= d.Device.max_registers_per_thread
      && smem_bytes <= d.Device.smem_per_smx
      && blocks_smx >= 1
    in
    let total_flops = A.total_flops scr in
    let warps_per_block = (thr + d.Device.warp_size - 1) / d.Device.warp_size in
    let p_membound =
      if not feasible then 0.
      else begin
        let oi = total_flops /. A.gmem_bytes scr in
        let rt_arr = A.measured_runtime a ~dev and by_arr = A.measured_bytes a ~dev in
        let bw_base = ref 0. in
        for i = 0 to A.member_count scr - 1 do
          let k = A.member scr i in
          let rt = rt_arr.(k) in
          if rt > 0. then bw_base := Float.max !bw_base (by_arr.(k) /. rt /. 1e9)
        done;
        let bw_base = if !bw_base > 0. then !bw_base else d.Device.gmem_bandwidth_gbs in
        let w_required =
          Device.bytes_per_cycle d /. float_of_int d.Device.smx_count
          *. float_of_int d.Device.gmem_latency_cycles /. 128. /. 2.
        in
        let w_active = float_of_int (blocks_smx * warps_per_block) in
        let active_frac = float_of_int t_b /. float_of_int thr in
        let e_occ = Float.min 1.0 (w_active *. active_frac /. w_required) in
        let barriers = A.barrier_count scr + if staged > 0 then 1 else 0 in
        let e_barrier = 1. /. (1. +. (0.02 *. float_of_int barriers)) in
        oi *. bw_base *. e_occ *. e_barrier
      end
    in
    if (not feasible) || p_membound <= 0. then Float.infinity
    else total_flops /. (p_membound *. 1e9)
  end

let pp ppf pr =
  Format.fprintf ppf
    "T=%.1fus P=%.1fGF B_sh=%.0f B_eff=%.3f blocks=%d regs=%d smem=%dB %s"
    (pr.runtime_s *. 1e6) pr.p_membound_gflops pr.b_sh pr.b_eff pr.blocks_smx
    pr.registers_per_thread pr.smem_bytes
    (if pr.feasible then "feasible" else "INFEASIBLE")
