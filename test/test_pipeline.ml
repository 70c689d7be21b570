(* End-to-end tests of the Algorithm 1 pipeline (Kfuse.Pipeline). *)

module Device = Kf_gpu.Device
module Pipeline = Kfuse.Pipeline
module Hgga = Kf_search.Hgga
module Plan = Kf_fusion.Plan
module Measure = Kf_sim.Measure
module Scale_les = Kf_workloads.Scale_les

let check = Alcotest.check
let device = Device.k20x

let fast_params = { Hgga.default_params with Hgga.max_generations = 60; stall_generations = 25 }

let test_prepare () =
  let p = Scale_les.rk_core () in
  let ctx = Pipeline.prepare ~device p in
  check Alcotest.int "measured every kernel" 18 (Array.length ctx.Pipeline.measured);
  check Alcotest.bool "original runtime positive" true (ctx.Pipeline.original_runtime > 0.);
  let sum =
    Array.fold_left (fun acc r -> acc +. r.Measure.runtime_s) 0. ctx.Pipeline.measured
  in
  check (Alcotest.float 1e-12) "runtime = sum" sum ctx.Pipeline.original_runtime

let test_run_rk_core () =
  let p = Scale_les.rk_core () in
  let o = Pipeline.run ~params:fast_params ~device p in
  check Alcotest.bool "speedup > 1" true (o.Pipeline.speedup > 1.0);
  check Alcotest.bool "fused faster" true (o.Pipeline.fused_runtime < o.Pipeline.context.Pipeline.original_runtime);
  (* The resulting plan is fully valid. *)
  let ctx = o.Pipeline.context in
  check Alcotest.int "plan valid" 0
    (List.length
       (Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec
          o.Pipeline.search.Hgga.plan))

let test_run_deterministic () =
  let p = Scale_les.rk_core () in
  let o1 = Pipeline.run ~params:fast_params ~device p in
  let o2 = Pipeline.run ~params:fast_params ~device p in
  check Alcotest.bool "same plan" true
    (Plan.equal o1.Pipeline.search.Hgga.plan o2.Pipeline.search.Hgga.plan);
  check (Alcotest.float 1e-12) "same speedup" o1.Pipeline.speedup o2.Pipeline.speedup

let test_fused_measurement_consistency () =
  let p = Scale_les.rk_core () in
  let o = Pipeline.run ~params:fast_params ~device p in
  let sum = List.fold_left (fun acc (_, r) -> acc +. r.Measure.runtime_s) 0. o.Pipeline.fused_measured in
  check (Alcotest.float 1e-12) "fused runtime = sum of unit runtimes" sum o.Pipeline.fused_runtime

let test_apply_reuses_baseline () =
  (* [apply] takes original units (and original horizontal planes) from
     the context's baseline instead of simulating them again; the result
     must equal a fresh measurement of the fused program bit for bit.
     Cloverleaf's plan keeps original units. *)
  let module Fused_program = Kf_fusion.Fused_program in
  let bits (r : Measure.result) =
    Printf.sprintf "%h %h %h %h %h %d %h" r.Measure.runtime_s r.Measure.gmem_bytes
      r.Measure.achieved_gbs r.Measure.achieved_gflops r.Measure.cycles_per_wave r.Measure.waves
      r.Measure.issue_stall_fraction
  in
  let reused = ref 0 in
  List.iter
    (fun (p, params) ->
      let o = Pipeline.run ~params ~device p in
      let fresh = Measure.fused_program_results ~device o.Pipeline.fused in
      check Alcotest.int "one result per unit" (List.length fresh) (List.length o.Pipeline.fused_measured);
      List.iter2
        (fun (u, r) (u', r') ->
          check Alcotest.bool "same unit" true (u == u');
          check Alcotest.string "same measurement" (bits r') (bits r);
          check Alcotest.bool "same occupancy" true (r.Measure.occupancy = r'.Measure.occupancy);
          match u with
          | Fused_program.Original k ->
              check Alcotest.bool "baseline result reused" true
                (r == o.Pipeline.context.Pipeline.measured.(k));
              incr reused
          | Fused_program.Fused _ | Fused_program.Horizontal _ -> ())
        o.Pipeline.fused_measured fresh)
    [
      (Scale_les.rk_core (), fast_params);
      (Kf_workloads.Cloverleaf.program (), fast_params);
      (Kf_workloads.Video.generate Kf_workloads.Video.default, { fast_params with Hgga.horizontal = true });
    ];
  check Alcotest.bool "some original unit" true (!reused > 0)

let test_objective_model_override () =
  let p = Scale_les.rk_core () in
  let ctx = Pipeline.prepare ~device p in
  let obj = Pipeline.objective ~model:Kf_search.Objective.Roofline ctx in
  check Alcotest.bool "roofline objective works" true
    (Float.is_finite (Kf_search.Objective.plan_cost obj (List.init 18 (fun k -> [ k ]))))

let test_profitability_cleanup_holds () =
  (* Every multi-member group in the final plan is model-profitable
     (constraint 1.1 after the Hgga cleanup). *)
  let p = Scale_les.rk_core () in
  let ctx = Pipeline.prepare ~device p in
  let obj = Pipeline.objective ctx in
  let r = Hgga.solve ~params:fast_params obj in
  List.iter
    (fun g ->
      if List.length g >= 2 then
        check Alcotest.bool "profitable group" true (Kf_search.Objective.group_profitable obj g))
    (Plan.groups r.Hgga.plan)

let test_sync_points_respected () =
  (* A host transfer in the middle of the RK core: no fused group may
     cross it, and the speedup shrinks accordingly. *)
  let p = Scale_les.rk_core () in
  let free = Pipeline.run ~params:fast_params ~device p in
  let synced = Pipeline.run ~params:fast_params ~sync_points:[ 8 ] ~device p in
  List.iter
    (fun g ->
      check Alcotest.bool "group stays on one side" false
        (List.exists (fun k -> k <= 8) g && List.exists (fun k -> k > 8) g))
    (Plan.groups synced.Pipeline.search.Hgga.plan);
  check Alcotest.bool "sync constrains benefit" true
    (synced.Pipeline.speedup <= free.Pipeline.speedup +. 1e-9)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report () =
  let p = Scale_les.rk_core () in
  let o = Pipeline.run ~params:fast_params ~device p in
  let r = Kfuse.Report.render o in
  check Alcotest.bool "has title" true (contains r "# Kernel fusion report");
  check Alcotest.bool "has outcome" true (contains r "**speedup**");
  check Alcotest.bool "lists new kernels" true (contains r "## New kernels");
  check Alcotest.bool "mentions QFLX relaxation" true (contains r "redundant copies");
  let rv = Kfuse.Report.render ~verify:true o in
  check Alcotest.bool "verification included" true (contains rv "bitwise")

let test_paper_params_shape () =
  let pp = Kf_search.Hgga.paper_params in
  check Alcotest.int "population 100" 100 pp.Hgga.population_size;
  check Alcotest.int "2000 generations" 2000 pp.Hgga.max_generations

let suite =
  [
    Alcotest.test_case "prepare" `Quick test_prepare;
    Alcotest.test_case "report" `Slow test_report;
    Alcotest.test_case "paper params" `Quick test_paper_params_shape;
    Alcotest.test_case "sync points respected" `Slow test_sync_points_respected;
    Alcotest.test_case "run rk core" `Slow test_run_rk_core;
    Alcotest.test_case "deterministic" `Slow test_run_deterministic;
    Alcotest.test_case "fused measurement consistency" `Slow test_fused_measurement_consistency;
    Alcotest.test_case "apply reuses baseline" `Slow test_apply_reuses_baseline;
    Alcotest.test_case "objective model override" `Quick test_objective_model_override;
    Alcotest.test_case "profitability cleanup" `Slow test_profitability_cleanup_holds;
  ]
