module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Grid = Kf_ir.Grid
module Fused = Kf_fusion.Fused
module Fused_program = Kf_fusion.Fused_program

type result = {
  runtime_s : float;
  gmem_bytes : float;
  achieved_gbs : float;
  achieved_gflops : float;
  occupancy : Occupancy.limits;
  cycles_per_wave : float;
  waves : int;
  issue_stall_fraction : float;
}

(* Per-kernel measurement accounting (no-ops unless Kf_obs.Metrics is
   enabled); cycle/instruction totals live in Engine. *)
let m_kernel_runs = Kf_obs.Metrics.counter "sim.kernel_runs"
let m_waves = Kf_obs.Metrics.counter "sim.waves"

let run_lowered ~device (p : Program.t) (low : Trace.lowered) =
  let occ =
    Occupancy.compute ~device ~threads_per_block:low.Trace.threads_per_block
      ~registers_per_thread:low.Trace.registers_per_thread
      ~smem_per_block:low.Trace.smem_per_block ~ro_per_block:low.Trace.ro_per_block ()
  in
  if occ.Occupancy.active_blocks = 0 then
    invalid_arg "Measure: kernel cannot launch (zero occupancy)";
  let total_blocks = Grid.blocks p.Program.grid in
  (* A grid smaller than one full wave leaves SMXs partly filled. *)
  let resident =
    min occ.Occupancy.active_blocks
      (max 1 ((total_blocks + device.Device.smx_count - 1) / device.Device.smx_count))
  in
  let r =
    Engine.run
      { Engine.device; blocks_per_smx = resident; total_blocks; spec = low.Trace.spec }
  in
  if Kf_obs.Metrics.enabled () then begin
    Kf_obs.Metrics.incr m_kernel_runs;
    Kf_obs.Metrics.add m_waves r.Engine.waves
  end;
  {
    runtime_s = r.Engine.runtime_s;
    gmem_bytes = low.Trace.gmem_bytes;
    achieved_gbs = low.Trace.gmem_bytes /. r.Engine.runtime_s /. 1e9;
    achieved_gflops = low.Trace.total_flops /. r.Engine.runtime_s /. 1e9;
    occupancy = occ;
    cycles_per_wave = r.Engine.cycles_per_wave;
    waves = r.Engine.waves;
    issue_stall_fraction = r.Engine.issue_stall_fraction;
  }

let kernel ~device p k = run_lowered ~device p (Trace.of_kernel ~device p k)

let fused ~device p f = run_lowered ~device p (Trace.of_fused ~device p f)

let program_results ~device p =
  Array.init (Program.num_kernels p) (fun k -> kernel ~device p k)

let program ~device p =
  Array.fold_left (fun acc r -> acc +. r.runtime_s) 0. (program_results ~device p)

(* One horizontal launch: measure each plane on its own sub-grid, then
   combine through Kf_fusion.Horizontal — the *same* composition function
   the projection model uses, with the pressures taken from the very same
   per-plane features (kernel registers for original planes, the fused
   kernel's registers/SMEM for fused ones).  That single definition is
   what keeps measured and projected horizontal runtimes in agreement on
   plane semantics. *)
let horizontal ~original ~device (p : Program.t) planes =
  let module H = Kf_fusion.Horizontal in
  let results =
    List.map
      (function
        | Fused_program.P_original k -> original k
        | Fused_program.P_fused f -> fused ~device p f)
      planes
  in
  let pressures =
    List.map
      (function
        | Fused_program.P_original k ->
            H.pressure ~regs:(Program.kernel p k).Kf_ir.Kernel.registers_per_thread ~smem:0
        | Fused_program.P_fused f ->
            H.pressure ~regs:f.Fused.registers_per_thread ~smem:f.Fused.smem_bytes_per_block)
      planes
  in
  let combined = H.combine_pressure pressures in
  let grid = p.Program.grid in
  let threads_per_block = Grid.threads_per_block grid in
  let blocks = Grid.blocks grid in
  let costs = List.map (fun r -> r.runtime_s) results in
  let runtime_s = H.runtime device ~threads_per_block ~blocks ~costs combined in
  let slowest =
    List.fold_left
      (fun acc r -> if r.runtime_s > acc.runtime_s then r else acc)
      (List.hd results) results
  in
  let gmem = List.fold_left (fun acc r -> acc +. r.gmem_bytes) 0. results in
  let flops =
    List.fold_left (fun acc r -> acc +. (r.achieved_gflops *. r.runtime_s *. 1e9)) 0. results
  in
  let occ =
    Occupancy.compute ~device ~threads_per_block ~registers_per_thread:combined.H.regs
      ~smem_per_block:combined.H.smem ~ro_per_block:0 ()
  in
  {
    runtime_s;
    gmem_bytes = gmem;
    achieved_gbs = gmem /. runtime_s /. 1e9;
    achieved_gflops = flops /. runtime_s /. 1e9;
    occupancy = occ;
    cycles_per_wave = slowest.cycles_per_wave;
    waves = slowest.waves;
    issue_stall_fraction = slowest.issue_stall_fraction;
  }

let fused_program_results ?originals ~device (fp : Fused_program.t) =
  let p = fp.Fused_program.program in
  let original =
    match originals with Some measured -> Array.get measured | None -> kernel ~device p
  in
  List.map
    (fun u ->
      match u with
      | Fused_program.Original k -> (u, original k)
      | Fused_program.Fused f -> (u, fused ~device p f)
      | Fused_program.Horizontal planes -> (u, horizontal ~original ~device p planes))
    fp.Fused_program.units

let fused_program ~device fp =
  List.fold_left (fun acc (_, r) -> acc +. r.runtime_s) 0. (fused_program_results ~device fp)

let speedup ~device fp =
  program ~device fp.Fused_program.program /. fused_program ~device fp

let pp_result ppf r =
  Format.fprintf ppf "%.1f us, %.1f GB/s, %.1f GFLOPS, %a, stall %.0f%%" (r.runtime_s *. 1e6)
    r.achieved_gbs r.achieved_gflops Occupancy.pp r.occupancy
    (r.issue_stall_fraction *. 100.)
