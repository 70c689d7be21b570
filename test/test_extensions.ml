(* Tests for the extension modules: DOT export, program text IO, invocation
   unrolling, simulated annealing, block-size tuning. *)

open Kf_ir
module Dot = Kf_graph.Dot
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Annealing = Kf_search.Annealing
module Hgga = Kf_search.Hgga
module Objective = Kf_search.Objective
module Plan = Kf_fusion.Plan
module Measure = Kf_sim.Measure
module Block_tuner = Kfuse.Block_tuner
module Suite = Kf_workloads.Suite
module Motivating = Kf_workloads.Motivating

let check = Alcotest.check
let device = Kf_gpu.Device.k20x

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Dot --- *)

let test_dot_data_dependency () =
  let p = Kf_workloads.Scale_les.rk_core () in
  let dd = Datadep.build p in
  let dot = Dot.data_dependency dd in
  check Alcotest.bool "digraph" true (contains dot "digraph data_dependency");
  check Alcotest.bool "kernel node" true (contains dot "rk_ddiv");
  check Alcotest.bool "array node" true (contains dot "QFLX");
  (* QFLX is expandable: blue in the paper's legend. *)
  check Alcotest.bool "expandable colored blue" true (contains dot "#6fa8dc");
  check Alcotest.bool "read-only colored red" true (contains dot "#e06666")

let test_dot_order_of_execution () =
  let p = Motivating.program () in
  let exec = Exec_order.build (Datadep.build p) in
  let dot = Dot.order_of_execution exec in
  check Alcotest.bool "digraph" true (contains dot "digraph order_of_execution");
  (* A -> B precedence must appear as an edge k0 -> k1. *)
  check Alcotest.bool "A->B edge" true (contains dot "k0 -> k1")

let test_dot_groups () =
  let p = Motivating.program () in
  let exec = Exec_order.build (Datadep.build p) in
  let dot = Dot.order_of_execution_with_groups exec [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  check Alcotest.bool "cluster for fused group" true (contains dot "subgraph cluster_1");
  check Alcotest.bool "dashed style" true (contains dot "style=dashed")

(* --- Program_io --- *)

let demo_text =
  {|# demo
program demo
grid 128 64 4 blocks 16 8
array temp
array lap elem 8
array sfc extent 2d elem 4
kernel laplacian regs 28
  read temp star5 4.0
  write lap point
kernel update regs 32 active 0.75 extra 2.0
  readwrite temp point 2.0
  read lap load:8 3.0
  read sfc offsets (0,0,0)(1,0,0) 1.5
|}

let test_io_parse () =
  let p = Program_io.parse demo_text in
  check Alcotest.string "name" "demo" p.Program.name;
  check Alcotest.int "kernels" 2 (Program.num_kernels p);
  check Alcotest.int "arrays" 3 (Program.num_arrays p);
  check Alcotest.int "block threads" 128 (Grid.threads_per_block p.Program.grid);
  let k0 = Program.kernel p 0 in
  check Alcotest.int "regs" 28 k0.Kernel.registers_per_thread;
  check Alcotest.int "star5 load" 5 (Kernel.thread_load k0 0);
  let k1 = Program.kernel p 1 in
  check (Alcotest.float 1e-9) "active fraction" 0.75 k1.Kernel.active_fraction;
  check Alcotest.int "load:8 points" 8 (Kernel.thread_load k1 1);
  check Alcotest.int "explicit offsets" 2 (Kernel.thread_load k1 2);
  let sfc = Program.array p 2 in
  check Alcotest.int "elem bytes" 4 sfc.Array_info.elem_bytes;
  check Alcotest.bool "2d extent" true (sfc.Array_info.extent = Array_info.Plane2d)

let test_io_roundtrip () =
  let p = Program_io.parse demo_text in
  let p2 = Program_io.parse (Program_io.print p) in
  check Alcotest.string "name survives" p.Program.name p2.Program.name;
  check Alcotest.int "kernels survive" (Program.num_kernels p) (Program.num_kernels p2);
  Array.iteri
    (fun i (k : Kernel.t) ->
      let k2 = Program.kernel p2 i in
      check Alcotest.string "kernel name" k.Kernel.name k2.Kernel.name;
      check Alcotest.bool "accesses equal" true (k.Kernel.accesses = k2.Kernel.accesses);
      check Alcotest.int "regs" k.Kernel.registers_per_thread k2.Kernel.registers_per_thread)
    p.Program.kernels

let test_io_roundtrip_workloads () =
  (* Every built-in workload must round-trip. *)
  List.iter
    (fun p ->
      let p2 = Program_io.parse (Program_io.print p) in
      check Alcotest.int (p.Program.name ^ " kernels") (Program.num_kernels p)
        (Program.num_kernels p2);
      check Alcotest.int (p.Program.name ^ " arrays") (Program.num_arrays p)
        (Program.num_arrays p2);
      (* The simulator agrees the programs are the same. *)
      check (Alcotest.float 1e-12) "same measured runtime" (Measure.program ~device p)
        (Measure.program ~device p2))
    [ Motivating.program (); Kf_workloads.Scale_les.rk_core () ]

let test_io_errors () =
  let expect_line n text =
    match Program_io.parse text with
    | exception Program_io.Parse_error (line, _) -> check Alcotest.int "error line" n line
    | _ -> Alcotest.fail "expected parse error"
  in
  expect_line 1 "nonsense";
  expect_line 2 "program x\ngrid 1 2\n";
  expect_line 3 "program x\ngrid 8 8 1 blocks 8 8\nread foo\n";
  expect_line 4 "program x\ngrid 8 8 1 blocks 8 8\nkernel k\n  read missing point\n";
  (* IR validation verdicts are parse errors too: at the declaring line,
     and at the last line for program-level checks *)
  expect_line 2 "program x\ngrid 0 8 1 blocks 8 8\n";
  expect_line 3 "program x\ngrid 8 8 1 blocks 8 8\narray a elem 0\n";
  expect_line 4 "program x\ngrid 8 8 1 blocks 8 8\narray a\nkernel k\nkernel j\n  read a point\n";
  expect_line 6 "program x\ngrid 8 8 1 blocks 8 8\narray a\narray b\nkernel k\n  read a point\n"

let test_io_file () =
  let p = Motivating.program () in
  let path = Filename.temp_file "kfuse" ".kf" in
  Program_io.write_file path p;
  let p2 = Program_io.parse_file path in
  Sys.remove path;
  check Alcotest.int "kernels" (Program.num_kernels p) (Program.num_kernels p2)

let prop_io_roundtrip_random =
  QCheck.Test.make ~count:40 ~name:"text format round-trips arbitrary generated programs"
    QCheck.small_int
    (fun seed ->
      let p =
        Suite.generate
          { Suite.default with Suite.kernels = 6 + (seed mod 12); arrays = 14 + (seed mod 20);
            thread_load = 1 + (seed mod 12); seed }
      in
      let p2 = Program_io.parse (Program_io.print p) in
      Kf_ir.Program.num_kernels p2 = Kf_ir.Program.num_kernels p
      && Kf_ir.Program.num_arrays p2 = Kf_ir.Program.num_arrays p
      && Measure.program ~device p2 = Measure.program ~device p)

(* --- Unroll --- *)

let test_unroll_repeat () =
  let p = Kf_workloads.Scale_les.rk_core () in
  let p3 = Unroll.repeat ~times:3 p in
  check Alcotest.int "3x kernels" (3 * Program.num_kernels p) (Program.num_kernels p3);
  check Alcotest.int "same arrays" (Program.num_arrays p) (Program.num_arrays p3);
  check Alcotest.(list string) "still valid" [] (Program.validate p3);
  check Alcotest.string "clone names" "rk_ddiv@2"
    (Program.kernel p3 (Program.num_kernels p)).Kernel.name;
  check Alcotest.int "original_of maps back" 5 (Unroll.original_of p3 (Program.num_kernels p + 5))

let test_unroll_identity () =
  let p = Motivating.program () in
  check Alcotest.bool "times=1 is identity" true (Unroll.repeat ~times:1 p == p);
  Alcotest.check_raises "times=0" (Invalid_argument "Unroll.repeat: need at least one invocation")
    (fun () -> ignore (Unroll.repeat ~times:0 p))

let test_unroll_creates_expandable () =
  (* Each iteration rewrites the write-only outputs: their classes become
     multi-generation after unrolling. *)
  let p = Unroll.repeat ~times:2 (Kf_workloads.Scale_les.rk_core ()) in
  let dd = Datadep.build p in
  let q = Kf_workloads.Scale_les.qflx p in
  check Alcotest.int "QFLX generations doubled" 4 (Datadep.generations dd q)

let test_unroll_fusion_across_iterations () =
  (* The fusion search can now fuse across sub-step boundaries. *)
  let p = Unroll.repeat ~times:2 (Kf_workloads.Scale_les.rk_core ()) in
  let o =
    Kfuse.Pipeline.run
      ~params:{ Hgga.default_params with Hgga.max_generations = 60; stall_generations = 25 }
      ~device p
  in
  check Alcotest.bool "speedup" true (o.Kfuse.Pipeline.speedup > 1.0)

(* --- Annealing --- *)

let test_annealing () =
  let p = Suite.generate { Suite.default with Suite.kernels = 15; arrays = 30; seed = 4 } in
  let ctx = Kfuse.Pipeline.prepare ~device p in
  let obj = Kfuse.Pipeline.objective ctx in
  let identity_cost = Objective.plan_cost obj (List.init 15 (fun k -> [ k ])) in
  let r = Annealing.solve obj in
  check Alcotest.bool "improves" true (r.Annealing.cost < identity_cost);
  check Alcotest.bool "accepted moves" true (r.Annealing.accepted > 0);
  let i = Objective.inputs obj in
  check Alcotest.int "plan valid" 0
    (List.length
       (Plan.validate ~device ~meta:i.Kf_model.Inputs.meta ~exec:i.Kf_model.Inputs.exec
          r.Annealing.plan))

let test_annealing_deterministic () =
  let p = Suite.generate { Suite.default with Suite.kernels = 12; arrays = 24; seed = 5 } in
  let run () =
    let ctx = Kfuse.Pipeline.prepare ~device p in
    (Annealing.solve (Kfuse.Pipeline.objective ctx)).Annealing.cost
  in
  check (Alcotest.float 0.) "same result" (run ()) (run ())

let test_annealing_near_hgga () =
  let p = Suite.generate { Suite.default with Suite.kernels = 15; arrays = 30; seed = 6 } in
  let ctx = Kfuse.Pipeline.prepare ~device p in
  let sa = Annealing.solve (Kfuse.Pipeline.objective ctx) in
  let ga =
    Hgga.solve
      ~params:{ Hgga.default_params with Hgga.max_generations = 150 }
      (Kfuse.Pipeline.objective ctx)
  in
  (* Two unrelated metaheuristics should agree within 15%. *)
  check Alcotest.bool "sa within 15% of hgga" true (sa.Annealing.cost <= ga.Hgga.cost *. 1.15)

(* --- TeaLeaf --- *)

let test_tealeaf_shape () =
  let p = Kf_workloads.Tealeaf.program () in
  check Alcotest.int "18 kernels (4 init + 3x4 CG + 2 finish)" 18 (Kf_ir.Program.num_kernels p);
  check Alcotest.(list string) "validates" [] (Kf_ir.Program.validate p);
  let p5 = Kf_workloads.Tealeaf.program ~cg_iterations:5 () in
  check Alcotest.int "26 kernels at 5 iterations" 26 (Kf_ir.Program.num_kernels p5);
  Alcotest.check_raises "0 iterations"
    (Invalid_argument "Tealeaf.program: need at least one CG iteration") (fun () ->
      ignore (Kf_workloads.Tealeaf.program ~cg_iterations:0 ()))

let test_tealeaf_cg_dependencies () =
  (* The CG kernels chain: w = Ap must precede the p.w reduction which
     must precede the u/r update which must precede the new direction. *)
  let p = Kf_workloads.Tealeaf.cg_step () in
  let exec = Exec_order.build (Datadep.build p) in
  check Alcotest.bool "w before pw" true (Exec_order.must_precede exec 4 5);
  check Alcotest.bool "pw before ur" true (Exec_order.must_precede exec 5 6);
  check Alcotest.bool "ur before p-update" true (Exec_order.must_precede exec 6 7)

let test_tealeaf_fusion_profits () =
  let p = Kf_workloads.Tealeaf.program () in
  let o =
    Kfuse.Pipeline.run
      ~params:{ Hgga.default_params with Hgga.max_generations = 80; stall_generations = 30 }
      ~device p
  in
  check Alcotest.bool "speedup" true (o.Kfuse.Pipeline.speedup > 1.0)

(* --- Parallel search --- *)

let test_hgga_domains_deterministic () =
  (* The domain count never changes the search result — each child draws
     from its own pre-split RNG. *)
  let p = Suite.generate { Suite.default with Suite.kernels = 14; arrays = 28; seed = 31 } in
  let solve domains =
    let ctx = Kfuse.Pipeline.prepare ~device p in
    Hgga.solve
      ~params:{ Hgga.default_params with Hgga.max_generations = 50; domains }
      (Kfuse.Pipeline.objective ctx)
  in
  let r1 = solve 1 and r2 = solve 2 and r3 = solve 3 in
  check Alcotest.bool "1 = 2 domains" true (Plan.equal r1.Hgga.plan r2.Hgga.plan);
  check Alcotest.bool "1 = 3 domains" true (Plan.equal r1.Hgga.plan r3.Hgga.plan);
  check (Alcotest.float 0.) "same cost" r1.Hgga.cost r3.Hgga.cost

(* --- Read-only cache --- *)

let test_readonly_cache_relieves_smem () =
  (* A fusion staging a read-only array keeps it out of SMEM when the
     device allows the read-only cache. *)
  let p = Kf_workloads.Scale_les.rk_core () in
  let meta = Metadata.build p in
  let exec = Exec_order.build (Datadep.build p) in
  (* Kernels 5 (numdiff_rho) and 1 (src_w) both read read-only CZ; 5 also
     reads DENS (read-write).  Use a known feasible group. *)
  let group = [ 1; 2 ] in
  let base = Kf_fusion.Fused.build ~device ~meta ~exec ~group in
  let roc =
    Kf_fusion.Fused.build ~device:(Kf_gpu.Device.with_readonly_cache device true) ~meta ~exec
      ~group
  in
  check Alcotest.bool "ro bytes appear or smem shrinks" true
    (roc.Kf_fusion.Fused.ro_bytes_per_block > 0
     && roc.Kf_fusion.Fused.smem_bytes_per_block <= base.Kf_fusion.Fused.smem_bytes_per_block
    || roc.Kf_fusion.Fused.ro_staged = [])

let test_readonly_cache_device_toggle () =
  let d = Kf_gpu.Device.with_readonly_cache device true in
  check Alcotest.bool "flag set" true d.Kf_gpu.Device.use_readonly_cache;
  check Alcotest.bool "name marked" true (contains d.Kf_gpu.Device.name "ROC");
  let d2 = Kf_gpu.Device.with_readonly_cache device false in
  check Alcotest.bool "idempotent off" true (d2 == device)

(* --- Block tuner --- *)

let test_block_tuner () =
  let p = Kf_workloads.Scale_les.rk_core () in
  let fast = { Hgga.default_params with Hgga.max_generations = 40; stall_generations = 20 } in
  let candidates, best = Block_tuner.tune ~tiles:[ (32, 8); (16, 16) ] ~params:fast ~device p in
  check Alcotest.int "two candidates" 2 (List.length candidates);
  check Alcotest.bool "best is a candidate" true
    (List.exists
       (fun c -> c.Block_tuner.block_x = best.Block_tuner.block_x
                 && c.Block_tuner.block_y = best.Block_tuner.block_y)
       candidates);
  List.iter
    (fun c ->
      check Alcotest.bool "positive runtime" true
        (c.Block_tuner.outcome.Kfuse.Pipeline.fused_runtime > 0.))
    candidates

let suite =
  [
    Alcotest.test_case "dot data dependency" `Quick test_dot_data_dependency;
    Alcotest.test_case "dot order of execution" `Quick test_dot_order_of_execution;
    Alcotest.test_case "dot groups" `Quick test_dot_groups;
    Alcotest.test_case "io parse" `Quick test_io_parse;
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "io roundtrip workloads" `Quick test_io_roundtrip_workloads;
    Alcotest.test_case "io errors" `Quick test_io_errors;
    Alcotest.test_case "io file" `Quick test_io_file;
    QCheck_alcotest.to_alcotest prop_io_roundtrip_random;
    Alcotest.test_case "unroll repeat" `Quick test_unroll_repeat;
    Alcotest.test_case "unroll identity" `Quick test_unroll_identity;
    Alcotest.test_case "unroll expandable" `Quick test_unroll_creates_expandable;
    Alcotest.test_case "unroll fusion" `Slow test_unroll_fusion_across_iterations;
    Alcotest.test_case "annealing" `Slow test_annealing;
    Alcotest.test_case "annealing deterministic" `Slow test_annealing_deterministic;
    Alcotest.test_case "annealing vs hgga" `Slow test_annealing_near_hgga;
    Alcotest.test_case "tealeaf shape" `Quick test_tealeaf_shape;
    Alcotest.test_case "tealeaf cg dependencies" `Quick test_tealeaf_cg_dependencies;
    Alcotest.test_case "tealeaf fusion" `Slow test_tealeaf_fusion_profits;
    Alcotest.test_case "hgga domains deterministic" `Slow test_hgga_domains_deterministic;
    Alcotest.test_case "readonly cache staging" `Quick test_readonly_cache_relieves_smem;
    Alcotest.test_case "readonly cache toggle" `Quick test_readonly_cache_device_toggle;
    Alcotest.test_case "block tuner" `Slow test_block_tuner;
  ]
