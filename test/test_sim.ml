(* Tests for Kf_sim: occupancy, engine behavior, measurement driver. *)

module Device = Kf_gpu.Device
module Occupancy = Kf_sim.Occupancy
module Engine = Kf_sim.Engine
module Trace = Kf_sim.Trace
module Measure = Kf_sim.Measure
module Motivating = Kf_workloads.Motivating

let check = Alcotest.check
let device = Device.k20x

(* --- Occupancy --- *)

let test_occupancy_thread_limit () =
  let l =
    Occupancy.compute ~device ~threads_per_block:512 ~registers_per_thread:20 ~smem_per_block:0 ()
  in
  check Alcotest.int "thread-limited" 4 l.Occupancy.active_blocks;
  check Alcotest.string "binding" "threads" (Occupancy.binding_resource l)

let test_occupancy_register_limit () =
  let l =
    Occupancy.compute ~device ~threads_per_block:256 ~registers_per_thread:128 ~smem_per_block:0 ()
  in
  (* 65536 / (256*128) = 2 *)
  check Alcotest.int "register-limited" 2 l.Occupancy.active_blocks;
  check Alcotest.string "binding" "registers" (Occupancy.binding_resource l)

let test_occupancy_smem_limit () =
  let l =
    Occupancy.compute ~device ~threads_per_block:128 ~registers_per_thread:32
      ~smem_per_block:(16 * 1024) ()
  in
  check Alcotest.int "smem-limited" 3 l.Occupancy.active_blocks;
  check Alcotest.string "binding" "smem" (Occupancy.binding_resource l)

let test_occupancy_overflow () =
  let l =
    Occupancy.compute ~device ~threads_per_block:128 ~registers_per_thread:32
      ~smem_per_block:(64 * 1024) ()
  in
  check Alcotest.int "cannot launch" 0 l.Occupancy.active_blocks

let test_occupancy_fraction () =
  let l =
    Occupancy.compute ~device ~threads_per_block:256 ~registers_per_thread:32 ~smem_per_block:0 ()
  in
  (* 65536/(256*32) = 8 blocks = 64 warps = max on Kepler. *)
  check (Alcotest.float 1e-9) "full occupancy" 1.0 (Occupancy.occupancy_fraction ~device l)

let test_occupancy_maxwell_more_blocks () =
  let k = Occupancy.compute ~device ~threads_per_block:64 ~registers_per_thread:16 ~smem_per_block:0 () in
  let m =
    Occupancy.compute ~device:Device.gtx750ti ~threads_per_block:64 ~registers_per_thread:16
      ~smem_per_block:0 ()
  in
  check Alcotest.int "kepler block cap" 16 k.Occupancy.active_blocks;
  check Alcotest.int "maxwell block cap" 32 m.Occupancy.active_blocks

(* --- Engine --- *)

let spec_of trace =
  { Engine.warps_per_block = 8; trace; special_trace = trace; conflict_factor = 1.0; stream_factor = 1.0 }

let run_blocks blocks trace =
  Engine.run { Engine.device; blocks_per_smx = blocks; total_blocks = blocks * device.Device.smx_count; spec = spec_of trace }

let test_engine_empty_trace () =
  let r = run_blocks 2 [||] in
  check Alcotest.bool "finishes" true (r.Engine.runtime_s >= 0.)

let test_engine_bandwidth_bound () =
  (* Pure streaming at full occupancy cannot beat the DRAM share. *)
  let trace = Array.make 256 (Engine.Gload 2) in
  let r = run_blocks 8 trace in
  let txns = 256 * 2 * 8 * 8 in
  let min_cycles = float_of_int txns *. 128. /. (Device.bytes_per_cycle device /. 14.) in
  check Alcotest.bool "respects bandwidth" true (r.Engine.cycles_per_wave >= min_cycles *. 0.99)

let test_engine_latency_hiding () =
  (* Achieved bandwidth grows with resident warps. *)
  let trace = Array.init 128 (fun i -> if i mod 2 = 0 then Engine.Gload 2 else Engine.Compute 2) in
  let r1 = run_blocks 1 trace in
  let r4 = run_blocks 4 trace in
  (* 4 blocks move 4x the data; if hiding worked, the wave takes well under
     4x the single-block cycles. *)
  check Alcotest.bool "overlap across warps" true
    (r4.Engine.cycles_per_wave < 3. *. r1.Engine.cycles_per_wave)

let test_engine_barrier_sync () =
  (* Barriers serialize: a trace with barriers takes longer than without. *)
  let with_b =
    Array.init 64 (fun i -> if i mod 4 = 3 then Engine.Barrier else Engine.Compute 4)
  in
  let without = Array.init 64 (fun i -> if i mod 4 = 3 then Engine.Compute 1 else Engine.Compute 4) in
  let rb = run_blocks 2 with_b in
  let rn = run_blocks 2 without in
  check Alcotest.bool "barriers cost" true (rb.Engine.cycles_per_wave > rn.Engine.cycles_per_wave)

let test_engine_conflict_factor () =
  let trace = Array.make 64 (Engine.Smem 4) in
  let base = Engine.run { Engine.device; blocks_per_smx = 2; total_blocks = 28; spec = spec_of trace } in
  let conflicted =
    Engine.run
      {
        Engine.device;
        blocks_per_smx = 2;
        total_blocks = 28;
        spec = { (spec_of trace) with Engine.conflict_factor = 2.0 };
      }
  in
  check Alcotest.bool "conflicts slow smem" true
    (conflicted.Engine.cycles_per_wave > 1.5 *. base.Engine.cycles_per_wave)

let test_engine_stream_factor () =
  let trace = Array.make 128 (Engine.Gload 2) in
  let base = run_blocks 8 trace in
  let penalized =
    Engine.run
      {
        Engine.device;
        blocks_per_smx = 8;
        total_blocks = 8 * 14;
        spec = { (spec_of trace) with Engine.stream_factor = 1.5 };
      }
  in
  check Alcotest.bool "stream penalty applies" true
    (penalized.Engine.cycles_per_wave > 1.3 *. base.Engine.cycles_per_wave)

let test_engine_waves () =
  let trace = Array.make 16 (Engine.Compute 4) in
  let one =
    Engine.run { Engine.device; blocks_per_smx = 4; total_blocks = 4 * 14; spec = spec_of trace }
  in
  let two =
    Engine.run { Engine.device; blocks_per_smx = 4; total_blocks = 8 * 14; spec = spec_of trace }
  in
  check Alcotest.int "one wave" 1 one.Engine.waves;
  check Alcotest.int "two waves" 2 two.Engine.waves;
  check (Alcotest.float 1e-12) "runtime doubles" (2. *. one.Engine.runtime_s) two.Engine.runtime_s

let test_engine_zero_blocks () =
  Alcotest.check_raises "zero blocks"
    (Invalid_argument "Engine.run: kernel cannot launch (zero resident blocks)") (fun () ->
      ignore
        (Engine.run
           { Engine.device; blocks_per_smx = 0; total_blocks = 1; spec = spec_of [||] }))

let test_engine_prefetch_cheaper_than_load () =
  (* A consumer after prefetch does not pay DRAM latency; after a load it
     does. *)
  let with_load = Array.init 64 (fun i -> if i mod 2 = 0 then Engine.Gload 2 else Engine.Compute 2) in
  let with_pf = Array.init 64 (fun i -> if i mod 2 = 0 then Engine.Prefetch 2 else Engine.Compute 2) in
  let rl = run_blocks 1 with_load in
  let rp = run_blocks 1 with_pf in
  check Alcotest.bool "prefetch hides latency" true
    (rp.Engine.cycles_per_wave < rl.Engine.cycles_per_wave)

let test_engine_mlp_cap () =
  (* A single warp cannot keep DRAM saturated on its own: doubling the
     loads-per-consumer beyond the in-flight window scales runtime roughly
     linearly, because the scoreboard serializes the excess. *)
  let burst n = Array.append (Array.make n (Engine.Gload 2)) [| Engine.Compute 1 |] in
  let spec t = { (spec_of t) with Engine.warps_per_block = 1 } in
  let run t = (Engine.run { Engine.device; blocks_per_smx = 1; total_blocks = 14; spec = spec t }).Engine.cycles_per_wave in
  let c6 = run (burst 6) and c24 = run (burst 24) in
  (* 24 loads = 4 full windows: at least ~3x the 6-load (single-window)
     time, whereas unlimited MLP would overlap them all. *)
  check Alcotest.bool "scoreboard limits in-flight loads" true (c24 > 2.5 *. c6)

let prop_engine_no_deadlock =
  (* Random traces with matched barrier counts always terminate. *)
  QCheck.Test.make ~count:50 ~name:"engine terminates on random traces"
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, len) ->
      let rng = Kf_util.Rng.create seed in
      let instr () =
        match Kf_util.Rng.int rng 5 with
        | 0 -> Engine.Gload (1 + Kf_util.Rng.int rng 3)
        | 1 -> Engine.Gstore 1
        | 2 -> Engine.Smem (1 + Kf_util.Rng.int rng 4)
        | 3 -> Engine.Compute (1 + Kf_util.Rng.int rng 8)
        | _ -> Engine.Barrier
      in
      let trace = Array.init len (fun _ -> instr ()) in
      let r =
        Engine.run { Engine.device; blocks_per_smx = 2; total_blocks = 28; spec = spec_of trace }
      in
      r.Engine.runtime_s >= 0. && r.Engine.instructions = len * 16)

(* --- Engine against the linear-scan oracle --- *)

(* Every field of a result, floats by their exact bits. *)
let engine_bits (r : Engine.result) =
  Printf.sprintf "runtime %h cycles %h stall %h waves %d instructions %d" r.Engine.runtime_s
    r.Engine.cycles_per_wave r.Engine.issue_stall_fraction r.Engine.waves r.Engine.instructions

let outcome f x = match f x with r -> Ok r | exception Invalid_argument m -> Error m

let gen_work =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Engine.Gload n) (int_range 1 3));
        (1, map (fun n -> Engine.Prefetch n) (int_range 1 3));
        (1, map (fun n -> Engine.Gstore n) (int_range 1 2));
        (2, map (fun n -> Engine.Smem n) (int_range 1 4));
        (3, map (fun n -> Engine.Compute n) (int_range 1 8));
      ])

let gen_instr = QCheck.Gen.(frequency [ (5, gen_work); (1, return Engine.Barrier) ])

(* Random block specs.  Traces hold bursts of loads that fill the
   scoreboard window, and often end in a barrier.  The special warp's
   trace is the same, empty, a prefix, an extension, the same barrier
   skeleton with other work between the barriers, or unrelated (the last
   three change its length).  Mismatched barrier counts deadlock, and
   then both engines must raise the same error. *)
let gen_config =
  let open QCheck.Gen in
  let chunk =
    frequency
      [
        (8, map (fun i -> [| i |]) gen_instr);
        (1, array_size (int_range 5 9) (map (fun n -> Engine.Gload n) (int_range 1 3)));
      ]
  in
  let* body = map Array.concat (list_size (int_range 0 20) chunk) in
  let* closing = bool in
  let trace = if closing then Array.append body [| Engine.Barrier |] else body in
  let n = Array.length trace in
  let* special =
    frequency
      [
        (2, return trace);
        (1, return [||]);
        (1, map (fun k -> Array.sub trace 0 k) (int_range 0 n));
        (1, map (fun extra -> Array.append trace extra) (array_size (int_range 1 6) gen_instr));
        ( 2,
          map
            (fun fills ->
              Array.concat
                (List.map2
                   (fun i fill ->
                     match i with Engine.Barrier -> Array.append fill [| Engine.Barrier |] | _ -> fill)
                   (Array.to_list trace) fills))
            (list_repeat n (array_size (int_range 0 2) gen_work)) );
        (1, array_size (int_range 0 24) gen_instr);
      ]
  in
  let* warps_per_block = int_range 1 32 in
  let* blocks = int_range 1 16 in
  let* conflict_factor = float_range 1. 4. in
  let* stream_factor = float_range 1. 3. in
  let* device = oneofl Device.extended in
  let* extra_waves = int_range 0 3 in
  return
    {
      Engine.device;
      blocks_per_smx = blocks;
      total_blocks = blocks * device.Device.smx_count * (1 + extra_waves);
      spec = { Engine.warps_per_block; trace; special_trace = special; conflict_factor; stream_factor };
    }

let print_config (c : Engine.config) =
  let instr = function
    | Engine.Gload n -> Printf.sprintf "L%d" n
    | Prefetch n -> Printf.sprintf "P%d" n
    | Gstore n -> Printf.sprintf "S%d" n
    | Smem n -> Printf.sprintf "M%d" n
    | Compute n -> Printf.sprintf "C%d" n
    | Barrier -> "B"
  in
  let trace t = String.concat " " (Array.to_list (Array.map instr t)) in
  Printf.sprintf "%s blocks %d/%d warps %d conflict %h stream %h\ntrace [%s]\nspecial [%s]"
    c.Engine.device.Device.name c.Engine.blocks_per_smx c.Engine.total_blocks
    c.Engine.spec.Engine.warps_per_block c.Engine.spec.Engine.conflict_factor
    c.Engine.spec.Engine.stream_factor (trace c.Engine.spec.Engine.trace)
    (trace c.Engine.spec.Engine.special_trace)

let prop_engine_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"engine equals the linear-scan oracle bit for bit"
    (QCheck.make ~print:print_config gen_config)
    (fun cfg ->
      let bits = Result.map engine_bits in
      bits (outcome Engine.run cfg) = bits (outcome Legacy_engine.run cfg))

let test_engine_oracle_extra_barrier () =
  (* The special warp waits at a barrier no other warp of its block
     reaches: both engines report the same deadlock. *)
  let trace = [| Engine.Gload 1; Engine.Compute 2; Engine.Barrier; Engine.Compute 1 |] in
  let cfg =
    {
      Engine.device;
      blocks_per_smx = 2;
      total_blocks = 28;
      spec =
        {
          (spec_of trace) with
          Engine.special_trace = Array.append trace [| Engine.Compute 1; Engine.Barrier; Engine.Compute 1 |];
        };
    }
  in
  let deadlock = "Engine.run: internal deadlock (barrier with no arrivals pending)" in
  check Alcotest.(result string string) "oracle deadlocks" (Error deadlock)
    (Result.map engine_bits (outcome Legacy_engine.run cfg));
  check Alcotest.(result string string) "engine deadlocks" (Error deadlock)
    (Result.map engine_bits (outcome Engine.run cfg))

let test_engine_issue_loop_allocates_nothing () =
  (* The same warps issue 10 and 10,000 instructions each: what the run
     allocates may not grow with the instruction count. *)
  let pattern =
    [| Engine.Gload 2; Engine.Gload 1; Engine.Prefetch 1; Engine.Smem 2; Engine.Barrier;
       Engine.Compute 3; Engine.Gload 1; Engine.Gstore 1; Engine.Compute 1; Engine.Barrier |]
  in
  let trace n = Array.init n (fun i -> pattern.(i mod Array.length pattern)) in
  let words n =
    let cfg = { Engine.device; blocks_per_smx = 4; total_blocks = 56; spec = spec_of (trace n) } in
    let before = Gc.minor_words () in
    let r = Engine.run cfg in
    let after = Gc.minor_words () in
    check Alcotest.int "all issued" (n * 32) r.Engine.instructions;
    after -. before
  in
  let short = words 10 and long = words 10_000 in
  check Alcotest.bool
    (Printf.sprintf "minor words %.0f (10 instructions) vs %.0f (10,000)" short long)
    true
    (Float.abs (long -. short) <= 8.)

(* Every kernel of every named workload, and every fused unit of its
   default plan (searched on the K20X), measured on every device through
   the engine and through the oracle. *)
let test_measure_matches_oracle_sweep () =
  let module Pipeline = Kfuse.Pipeline in
  let module Fused_program = Kf_fusion.Fused_program in
  let measure_bits (r : Measure.result) =
    Printf.sprintf "%h %h %h %h %h %d %h" r.Measure.runtime_s r.Measure.gmem_bytes
      r.Measure.achieved_gbs r.Measure.achieved_gflops r.Measure.cycles_per_wave r.Measure.waves
      r.Measure.issue_stall_fraction
  in
  let same label new_ old =
    let bits o = Result.map (fun r -> (measure_bits r, r.Measure.occupancy)) (outcome Lazy.force o) in
    if bits new_ <> bits old then Alcotest.failf "%s differs from the oracle" label
  in
  let workloads =
    Kf_workloads.
      [
        Motivating.program ();
        Cloverleaf.program ();
        Tealeaf.program ();
        Scale_les.program ();
        Scale_les.rk_core ();
        Homme.program ();
        Video.generate Video.default;
      ]
  in
  List.iter
    (fun (p : Kf_ir.Program.t) ->
      let fused = (Pipeline.run ~device p).Pipeline.fused in
      let lowered_units =
        List.concat_map
          (function
            | Fused_program.Original _ -> []
            | Fused_program.Fused f -> [ f ]
            | Fused_program.Horizontal planes ->
                List.filter_map
                  (function Fused_program.P_fused f -> Some f | Fused_program.P_original _ -> None)
                  planes)
          fused.Fused_program.units
      in
      List.iter
        (fun device ->
          for k = 0 to Kf_ir.Program.num_kernels p - 1 do
            same
              (Printf.sprintf "%s kernel %d on %s" p.Kf_ir.Program.name k device.Device.name)
              (lazy (Measure.kernel ~device p k))
              (lazy (Legacy_engine.measure ~device p (Trace.of_kernel ~device p k)))
          done;
          List.iteri
            (fun i f ->
              same
                (Printf.sprintf "%s fused unit %d on %s" p.Kf_ir.Program.name i device.Device.name)
                (lazy (Measure.fused ~device p f))
                (lazy (Legacy_engine.measure ~device p (Trace.of_fused ~device p f))))
            lowered_units)
        Device.extended)
    workloads

(* --- Measure --- *)

let test_measure_kernel () =
  let p = Motivating.program () in
  let r = Measure.kernel ~device p 0 in
  check Alcotest.bool "positive runtime" true (r.Measure.runtime_s > 0.);
  check Alcotest.bool "bandwidth below device peak" true
    (r.Measure.achieved_gbs < device.Device.gmem_bandwidth_gbs);
  check Alcotest.bool "occupancy positive" true (r.Measure.occupancy.Occupancy.active_blocks > 0)

let test_measure_program_sums () =
  let p = Motivating.program () in
  let total = Measure.program ~device p in
  let parts = Measure.program_results ~device p in
  let sum = Array.fold_left (fun acc r -> acc +. r.Measure.runtime_s) 0. parts in
  check (Alcotest.float 1e-12) "program = sum of kernels" sum total

let test_measure_determinism () =
  let p = Motivating.program () in
  let a = Measure.program ~device p and b = Measure.program ~device p in
  check (Alcotest.float 0.) "deterministic" a b

let test_measure_devices_differ () =
  let p = Motivating.program () in
  let k20 = Measure.program ~device p in
  let k40 = Measure.program ~device:Device.k40 p in
  check Alcotest.bool "faster device is faster" true (k40 < k20)

let test_measure_runtime_respects_traffic () =
  (* Runtime can never beat streaming the kernel's bytes at device peak. *)
  let p = Motivating.program () in
  Array.iteri
    (fun _ r ->
      let floor_s = r.Measure.gmem_bytes /. (device.Device.gmem_bandwidth_gbs *. 1e9) in
      check Alcotest.bool "above streaming floor" true (r.Measure.runtime_s > 0.8 *. floor_s))
    (Measure.program_results ~device p)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_engine_no_deadlock; prop_engine_matches_oracle ]

let suite =
  [
    Alcotest.test_case "occupancy thread limit" `Quick test_occupancy_thread_limit;
    Alcotest.test_case "occupancy register limit" `Quick test_occupancy_register_limit;
    Alcotest.test_case "occupancy smem limit" `Quick test_occupancy_smem_limit;
    Alcotest.test_case "occupancy overflow" `Quick test_occupancy_overflow;
    Alcotest.test_case "occupancy fraction" `Quick test_occupancy_fraction;
    Alcotest.test_case "occupancy maxwell blocks" `Quick test_occupancy_maxwell_more_blocks;
    Alcotest.test_case "engine empty trace" `Quick test_engine_empty_trace;
    Alcotest.test_case "engine bandwidth bound" `Quick test_engine_bandwidth_bound;
    Alcotest.test_case "engine latency hiding" `Quick test_engine_latency_hiding;
    Alcotest.test_case "engine barrier sync" `Quick test_engine_barrier_sync;
    Alcotest.test_case "engine conflict factor" `Quick test_engine_conflict_factor;
    Alcotest.test_case "engine stream factor" `Quick test_engine_stream_factor;
    Alcotest.test_case "engine waves" `Quick test_engine_waves;
    Alcotest.test_case "engine zero blocks" `Quick test_engine_zero_blocks;
    Alcotest.test_case "engine prefetch" `Quick test_engine_prefetch_cheaper_than_load;
    Alcotest.test_case "engine mlp cap" `Quick test_engine_mlp_cap;
    Alcotest.test_case "engine oracle extra barrier" `Quick test_engine_oracle_extra_barrier;
    Alcotest.test_case "engine issue loop allocates nothing" `Quick
      test_engine_issue_loop_allocates_nothing;
    Alcotest.test_case "measure matches oracle sweep" `Slow test_measure_matches_oracle_sweep;
    Alcotest.test_case "measure kernel" `Quick test_measure_kernel;
    Alcotest.test_case "measure program sums" `Quick test_measure_program_sums;
    Alcotest.test_case "measure determinism" `Quick test_measure_determinism;
    Alcotest.test_case "measure devices differ" `Quick test_measure_devices_differ;
    Alcotest.test_case "measure traffic floor" `Quick test_measure_runtime_respects_traffic;
  ]
  @ qsuite
