(* The warp engine as it was before the runnable warps moved into a heap:
   every issued instruction scans all resident warps in index order for
   the earliest-ready one, warps are records with boxed ready times, and
   each warp's load scoreboard is a [Queue].  Metrics are not recorded. *)

module Device = Kf_gpu.Device
module Engine = Kf_sim.Engine
module Measure = Kf_sim.Measure
module Occupancy = Kf_sim.Occupancy
module Trace = Kf_sim.Trace
module Program = Kf_ir.Program
module Grid = Kf_ir.Grid

open Engine

type warp = {
  block : int;
  trace : instr array;
  mutable pc : int;
  mutable ready : float;
  mutable data_ready : float;
      (* completion time of the warp's outstanding global loads: loads are
         pipelined (memory-level parallelism), only consumers wait *)
  outstanding : float Queue.t;
      (* completion times of in-flight loads; the scoreboard caps how many
         a warp may pipeline *)
  mutable parked : bool; (* waiting at a barrier *)
}

(* In-flight global loads per warp (Kepler scoreboard/register-destination
   limit).  This is what stops a single resident mega-block from saturating
   DRAM on its own. *)
let mlp_limit = 6

let barrier_cost = 16.

let run cfg =
  if cfg.blocks_per_smx <= 0 then
    invalid_arg "Engine.run: kernel cannot launch (zero resident blocks)";
  if cfg.spec.warps_per_block <= 0 then invalid_arg "Engine.run: no warps per block";
  let d = cfg.device in
  let nblocks = cfg.blocks_per_smx in
  let wpb = cfg.spec.warps_per_block in
  let warps =
    Array.init (nblocks * wpb) (fun i ->
        let block = i / wpb in
        let is_special = i mod wpb = 0 in
        {
          block;
          trace = (if is_special then cfg.spec.special_trace else cfg.spec.trace);
          pc = 0;
          ready = 0.;
          data_ready = 0.;
          outstanding = Queue.create ();
          parked = false;
        })
  in
  (* Resource model: "next free" timestamps advanced by per-instruction
     service times; a warp's instruction starts when both the warp and the
     issue slots are free, and completes after the resource pipeline has
     drained its requests plus the access latency. *)
  let issue_period = 1. /. float_of_int (d.Device.schedulers_per_smx * d.Device.dispatch_per_scheduler) in
  let dram_cycles_per_txn =
    128. /. (Device.bytes_per_cycle d /. float_of_int d.Device.smx_count)
    *. Float.max 1.0 cfg.spec.stream_factor
  in
  let fp_cycles_per_instr = 32. /. Device.flops_per_cycle_smx d in
  let smem_cycles_per_access = cfg.spec.conflict_factor in
  let issue_next = ref 0. in
  let dram_next = ref 0. in
  let fp_next = ref 0. in
  let smem_next = ref 0. in
  let idle_cycles = ref 0. in
  let instructions = ref 0 in
  (* Barrier bookkeeping per block. *)
  let barrier_count = Array.make nblocks 0 in
  let barrier_waiters = Array.make nblocks [] in
  (* Warps whose trace is empty are done before the first cycle. *)
  let remaining =
    ref (Array.fold_left (fun acc w -> if Array.length w.trace > 0 then acc + 1 else acc) 0 warps)
  in
  let finish_time = ref 0. in
  while !remaining > 0 do
    (* Pick the unparked, unfinished warp with the earliest ready time. *)
    let best = ref None in
    Array.iter
      (fun w ->
        if (not w.parked) && w.pc < Array.length w.trace then
          match !best with
          | Some b when b.ready <= w.ready -> ()
          | _ -> best := Some w)
      warps;
    match !best with
    | None ->
        (* All runnable warps are parked at barriers with no releaser: a
           deadlock would be an engine bug. *)
        invalid_arg "Engine.run: internal deadlock (barrier with no arrivals pending)"
    | Some w ->
        let start = Float.max w.ready !issue_next in
        if start > !issue_next then idle_cycles := !idle_cycles +. (start -. !issue_next);
        issue_next := start +. issue_period;
        incr instructions;
        let instr = w.trace.(w.pc) in
        w.pc <- w.pc + 1;
        (match instr with
        | Gload n ->
            (* Loads pipeline up to the scoreboard limit: the warp keeps
               issuing (memory-level parallelism); the data-ready horizon
               moves to this load's completion and consumers below wait on
               it.  When the in-flight window is full, issuing stalls until
               the oldest load lands. *)
            let start =
              if Queue.length w.outstanding >= mlp_limit then
                Float.max start (Queue.pop w.outstanding)
              else start
            in
            let service = float_of_int n *. dram_cycles_per_txn in
            let begin_xfer = Float.max start !dram_next in
            dram_next := begin_xfer +. service;
            let completion = !dram_next +. float_of_int d.Device.gmem_latency_cycles in
            Queue.add completion w.outstanding;
            w.data_ready <- Float.max w.data_ready completion;
            w.ready <- start +. 2.
        | Prefetch n ->
            (* Bandwidth now, data needed only next iteration: no
               data-ready update. *)
            let service = float_of_int n *. dram_cycles_per_txn in
            let begin_xfer = Float.max start !dram_next in
            dram_next := begin_xfer +. service;
            w.ready <- start +. 2.
        | Gstore n ->
            (* Stores need their operands but then fire-and-forget through
               the write queue. *)
            let start = Float.max start w.data_ready in
            Queue.clear w.outstanding;
            let service = float_of_int n *. dram_cycles_per_txn in
            let begin_xfer = Float.max start !dram_next in
            dram_next := begin_xfer +. service;
            w.ready <- start +. 4.
        | Smem n ->
            let start = Float.max start w.data_ready in
            Queue.clear w.outstanding;
            let service = float_of_int n *. smem_cycles_per_access in
            let begin_access = Float.max start !smem_next in
            smem_next := begin_access +. service;
            w.ready <- !smem_next +. float_of_int d.Device.smem_latency_cycles
        | Compute n ->
            let start = Float.max start w.data_ready in
            Queue.clear w.outstanding;
            let service = float_of_int n *. fp_cycles_per_instr in
            let begin_fp = Float.max start !fp_next in
            fp_next := begin_fp +. service;
            w.ready <- !fp_next +. 4.
        | Barrier ->
            let start = Float.max start w.data_ready in
            Queue.clear w.outstanding;
            barrier_count.(w.block) <- barrier_count.(w.block) + 1;
            if barrier_count.(w.block) = wpb then begin
              (* Last warp arrives: release everyone. *)
              List.iter
                (fun peer ->
                  peer.parked <- false;
                  peer.ready <- start +. barrier_cost)
                barrier_waiters.(w.block);
              barrier_waiters.(w.block) <- [];
              barrier_count.(w.block) <- 0;
              w.ready <- start +. barrier_cost
            end
            else begin
              w.parked <- true;
              barrier_waiters.(w.block) <- w :: barrier_waiters.(w.block)
            end);
        if w.pc >= Array.length w.trace then begin
          decr remaining;
          finish_time := Float.max !finish_time w.ready
        end
  done;
  let cycles_per_wave = Float.max !finish_time (Float.max !dram_next !issue_next) in
  let concurrent = cfg.blocks_per_smx * d.Device.smx_count in
  let waves = max 1 ((cfg.total_blocks + concurrent - 1) / concurrent) in
  let runtime_s = cycles_per_wave *. float_of_int waves /. (d.Device.clock_ghz *. 1e9) in
  {
    cycles_per_wave;
    waves;
    runtime_s;
    issue_stall_fraction = (if cycles_per_wave > 0. then !idle_cycles /. cycles_per_wave else 0.);
    instructions = !instructions;
  }

(* Measure's lowering-to-result step, over this engine. *)
let measure ~device (p : Program.t) (low : Trace.lowered) =
  let occ =
    Occupancy.compute ~device ~threads_per_block:low.Trace.threads_per_block
      ~registers_per_thread:low.Trace.registers_per_thread
      ~smem_per_block:low.Trace.smem_per_block ~ro_per_block:low.Trace.ro_per_block ()
  in
  if occ.Occupancy.active_blocks = 0 then
    invalid_arg "Measure: kernel cannot launch (zero occupancy)";
  let total_blocks = Grid.blocks p.Program.grid in
  let resident =
    min occ.Occupancy.active_blocks
      (max 1 ((total_blocks + device.Device.smx_count - 1) / device.Device.smx_count))
  in
  let r = run { Engine.device; blocks_per_smx = resident; total_blocks; spec = low.Trace.spec } in
  {
    Measure.runtime_s = r.runtime_s;
    gmem_bytes = low.Trace.gmem_bytes;
    achieved_gbs = low.Trace.gmem_bytes /. r.runtime_s /. 1e9;
    achieved_gflops = low.Trace.total_flops /. r.runtime_s /. 1e9;
    occupancy = occ;
    cycles_per_wave = r.cycles_per_wave;
    waves = r.waves;
    issue_stall_fraction = r.issue_stall_fraction;
  }
