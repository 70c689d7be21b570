(* oneshot-apps: cold, kfuse-fuse-style decisions (prepare -> objective
   -> solve -> apply), each with a fresh objective.  One pass decides a
   fixed list: the named applications with horizontal search (the CLI
   default), a seeded draw of Table V suite points searched vertically
   for a fixed number of generations (the paper's setting: stall
   disabled), and two suite points through a device portfolio. *)

module Program = Kf_ir.Program
module Plan = Kf_fusion.Plan
module Hgga = Kf_search.Hgga
module Pipeline = Kfuse.Pipeline
module Suite = Kf_workloads.Suite
module Rng = Kf_util.Rng

type item = {
  slot : string;
  program : Program.t;
  params : Hgga.params;
  portfolio : bool;
}

(* The paper's setting (Table VI) scaled down: vertical only, its
   population, and a fixed generation count with the stall rule off, so
   every draw does the same number of generations. *)
let suite_params seed =
  { Hgga.paper_params with Hgga.max_generations = 30; stall_generations = 30; seed }

(* A Table V point: [kernels] kernels over twice as many arrays, the
   other attributes at the centre of their axes (the suite defaults). *)
let suite_point ~kernels ~generator =
  let config = { Suite.default with Suite.kernels; arrays = 2 * kernels; seed = generator } in
  (Suite.name_of config ^ "-g" ^ string_of_int generator, Suite.generate config)

(* Everything a pass decides.  The applications are decided exactly as
   [kfuse fuse] decides them (default parameters and seed), and the two
   portfolio points are fixed; the workload seed draws the vertically
   searched suite points (their generator seeds) and their search seeds.
   Three of those have 20 kernels, near scale-les-rk's decision time, so
   the median decision sits in a cluster rather than on one item. *)
let items ~seed =
  let rng = Rng.create seed in
  let app slot program =
    { slot; program; params = { Hgga.default_params with Hgga.horizontal = true }; portfolio = false }
  in
  let drawn kernels =
    let slot, program = suite_point ~kernels ~generator:(Rng.int rng 1_000_000) in
    { slot; program; params = suite_params (Rng.int rng 1_000_000); portfolio = false }
  in
  let portfolio generator =
    let name, program = suite_point ~kernels:20 ~generator in
    {
      slot = "portfolio/" ^ name;
      program;
      params = suite_params Hgga.default_params.Hgga.seed;
      portfolio = true;
    }
  in
  let s20a = drawn 20 in
  let s20b = drawn 20 in
  let s20c = drawn 20 in
  let s30 = drawn 30 in
  (* scale-les-rk and the three 20-kernel points, the decisions about as
     long as the median one, sit apart in the pass so that their times
     sample the host at different moments *)
  [
    app "scale-les-rk" (Kf_workloads.Scale_les.rk_core ());
    app "cloverleaf" (Kf_workloads.Cloverleaf.program ());
    s20a;
    app "tealeaf" (Kf_workloads.Tealeaf.program ());
    s20b;
    app "homme" (Kf_workloads.Homme.program ());
    s20c;
    app "video" (Kf_workloads.Video.generate Kf_workloads.Video.default);
    s30;
    portfolio 1;
    portfolio 2;
  ]

let extra_devices =
  List.filter
    (fun d -> not (Kf_gpu.Device.equal d Common.device))
    Kf_gpu.Device.extended

(* The extra devices' baselines, exactly as [Pipeline.portfolio] builds
   them: re-measured runtimes over the primary context's graphs. *)
let portfolio_inputs (ctx : Pipeline.context) =
  List.map
    (fun d ->
      let measured = Kf_sim.Measure.program_results ~device:d ctx.Pipeline.program in
      let measured_runtime = Array.map (fun r -> r.Kf_sim.Measure.runtime_s) measured in
      Kf_model.Inputs.make ~device:d ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec
        ~measured_runtime)
    extra_devices

(* One decision; spans (traced runs only) cover each layer call. *)
let decide ?(domains = 1) ~traced item =
  let id = Common.next_decision_id () in
  let params = { item.params with Hgga.domains } in
  let t0 = Common.now () in
  let obj, result =
    Spans.within ~decision:id "decision" (fun root ->
        let span name f = Spans.within ~decision:id ~parent:root name (fun _ -> f ()) in
        let ctx = span "pipeline.prepare" (fun () -> Pipeline.prepare ~device:Common.device item.program) in
        let portfolio =
          if item.portfolio then Some (span "sim.portfolio_baseline" (fun () -> portfolio_inputs ctx))
          else None
        in
        let obj = span "pipeline.objective" (fun () -> Pipeline.objective ~domains ?portfolio ctx) in
        let result =
          span "hgga.solve" (fun () ->
              if item.portfolio then (Hgga.solve_portfolio ~params obj).Hgga.primary
              else Hgga.solve ~params obj)
        in
        ignore (span "pipeline.apply" (fun () -> Pipeline.apply ctx result));
        (obj, result))
  in
  let wall = Common.now () -. t0 in
  if traced then begin
    Common.Counters.add_objective obj;
    Common.Counters.add "hgga.searches" 1.;
    Common.Counters.add "hgga.generations" (float_of_int result.Hgga.stats.Hgga.generations);
    if item.portfolio then Common.Counters.add "objective.portfolio_decisions" 1.
  end;
  let stats = result.Hgga.stats in
  {
    Common.d_id = id;
    d_kind = (if item.portfolio then "portfolio" else item.slot);
    d_slot = item.slot;
    d_wall_s = wall;
    d_digest =
      Common.digest ~plan:result.Hgga.plan ~cost:result.Hgga.cost
        ~evaluations:stats.Hgga.evaluations ~rung:"-";
    d_failure = Common.stop_failure stats.Hgga.stop;
    d_pair = Some (item.program, result.Hgga.plan);
  }

(* [`Passes k]: the whole list, [k] times, so every run decides each
   item equally often; [`Count n]: the first [n] decisions of that.
   [between] runs after each decision, outside it. *)
let pass ?domains ?(between = ignore) ~traced ~limit items =
  let passes, count =
    match limit with
    | `Passes k -> (k, k * List.length items)
    | `Count n -> ((n + List.length items - 1) / List.length items, n)
  in
  List.concat (List.init passes (fun _ -> items))
  |> List.filteri (fun i _ -> i < count)
  |> List.map (fun item ->
         let d = decide ?domains ~traced item in
         between ();
         d)

(* Set-up: generating the pass's inputs and bringing each in as a user's
   .kf file would (printed, then parsed back). *)
let setup ~seed =
  let t0 = Common.now () in
  let items =
    List.map
      (fun item -> { item with program = Kf_ir.Program_io.parse (Kf_ir.Program_io.print item.program) })
      (items ~seed)
  in
  (items, Common.now () -. t0)
