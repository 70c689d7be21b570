module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Metadata = Kf_ir.Metadata
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Measure = Kf_sim.Measure
module Inputs = Kf_model.Inputs
module Objective = Kf_search.Objective
module Hgga = Kf_search.Hgga
module Plan = Kf_fusion.Plan
module Fused_program = Kf_fusion.Fused_program
module Error = Kf_robust.Error
module Guard = Kf_robust.Guard
module Inject = Kf_robust.Inject
module Obs = Kf_obs.Trace

type context = {
  device : Device.t;
  program : Program.t;
  meta : Metadata.t;
  datadep : Datadep.t;
  exec : Exec_order.t;
  measured : Measure.result array;
  inputs : Inputs.t;
  original_runtime : float;
}

let phase_args program =
  if Obs.enabled () then [ ("workload", Kf_obs.Json.Str program.Program.name) ] else []

let prepare ?(sync_points = []) ~device program =
  let args = phase_args program in
  let meta = Obs.span ~cat:"pipeline" ~args "build" (fun () -> Metadata.build program) in
  let datadep, exec =
    Obs.span ~cat:"pipeline" ~args "analyze" (fun () ->
        let datadep = Datadep.build program in
        (datadep, Exec_order.build ~sync_points datadep))
  in
  let measured =
    Obs.span ~cat:"pipeline" ~args "measure" (fun () ->
        Measure.program_results ~device program)
  in
  let measured_runtime = Array.map (fun r -> r.Measure.runtime_s) measured in
  let inputs = Inputs.make ~device ~meta ~exec ~measured_runtime in
  {
    device;
    program;
    meta;
    datadep;
    exec;
    measured;
    inputs;
    original_runtime = Array.fold_left ( +. ) 0. measured_runtime;
  }

let objective ?model ?guard ?faults ?domains:_ ?portfolio ctx =
  Objective.create ?model ?guard ?faults ?portfolio ctx.inputs

(* Extra-device inputs for a portfolio: re-measure the original kernels
   on each device, but share the primary context's metadata and graphs
   (the arena requires all portfolio inputs over the same program
   value). *)
let portfolio_inputs ctx devices =
  List.map
    (fun d ->
      let measured = Measure.program_results ~device:d ctx.program in
      let measured_runtime = Array.map (fun r -> r.Measure.runtime_s) measured in
      Inputs.make ~device:d ~meta:ctx.meta ~exec:ctx.exec ~measured_runtime)
    devices

type outcome = {
  context : context;
  search : Hgga.result;
  fused : Fused_program.t;
  fused_measured : (Fused_program.unit_ * Measure.result) list;
  fused_runtime : float;
  speedup : float;
}

(* A degenerate fused measurement (zero, negative, NaN or infinite total)
   must not become an inf/NaN speedup that poisons reports and geomeans
   downstream; 0 is the explicit "invalid measurement" marker. *)
let safe_speedup ~original ~fused =
  if Float.is_finite fused && fused > 0. && Float.is_finite original && original >= 0. then
    original /. fused
  else 0.

let apply ctx (search : Hgga.result) =
  let args = phase_args ctx.program in
  let fused, fused_measured =
    Obs.span ~cat:"pipeline" ~args "apply" (fun () ->
        let fused =
          Fused_program.build ~device:ctx.device ~meta:ctx.meta ~exec:ctx.exec
            search.Hgga.plan
        in
        (* [fused] is over [Metadata.program ctx.meta], the program
           [ctx.measured] was taken from *)
        (fused, Measure.fused_program_results ~originals:ctx.measured ~device:ctx.device fused))
  in
  let fused_runtime =
    List.fold_left (fun acc (_, r) -> acc +. r.Measure.runtime_s) 0. fused_measured
  in
  {
    context = ctx;
    search;
    fused;
    fused_measured;
    fused_runtime;
    speedup = safe_speedup ~original:ctx.original_runtime ~fused:fused_runtime;
  }

let run ?params ?model ?sync_points ~device program =
  let ctx = prepare ?sync_points ~device program in
  let obj = objective ?model ctx in
  let search =
    Obs.span ~cat:"pipeline" ~args:(phase_args program) "search" (fun () ->
        Hgga.solve ?params obj)
  in
  apply ctx search

type portfolio_outcome = {
  outcome : outcome;
  portfolio : Hgga.portfolio_result;
}

let portfolio ?params ?model ?sync_points ~devices ~device program =
  let ctx = prepare ?sync_points ~device program in
  let extras =
    Obs.span ~cat:"pipeline" ~args:(phase_args program) "measure-portfolio" (fun () ->
        portfolio_inputs ctx devices)
  in
  let obj = objective ?model ~portfolio:extras ctx in
  let result =
    Obs.span ~cat:"pipeline" ~args:(phase_args program) "search" (fun () ->
        Hgga.solve_portfolio ?params obj)
  in
  { outcome = apply ctx result.Hgga.primary; portfolio = result }

(* --- streaming glue --- *)

(* Kf_search cannot see the simulator, so Stream takes the
   prepare-and-measure step as a callback; this is that callback. *)
let stream_env ?model ?sync_points ~device () =
 fun program -> objective ?model (prepare ?sync_points ~device program)

let stream ?config ?model ?sync_points ~device program =
  Kf_search.Stream.create ?config (stream_env ?model ?sync_points ~device ()) program

(* --- fault-tolerant entry points --- *)

let prepare_safe ?sync_points ~device program =
  match prepare ?sync_points ~device program with
  | ctx -> Ok ctx
  | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception e -> Error (Error.classify ~stage:Error.Prepare e)

let identity_result ctx obj (search : Hgga.result) =
  let n = Program.num_kernels ctx.program in
  let groups = List.init n (fun k -> [ k ]) in
  { search with Hgga.groups; plan = Plan.identity n; cost = Objective.plan_cost obj groups }

(* Plans crossing the search/apply boundary are re-validated against the
   full constraint set; a violating plan is degraded rather than trusted —
   first by dissolving the offending groups, then (if the plan as a whole
   is broken) all the way to the identity plan, which is valid by
   construction. *)
let validated_result ctx obj (search : Hgga.result) =
  let validate plan = Plan.validate ~device:ctx.device ~meta:ctx.meta ~exec:ctx.exec plan in
  match validate search.Hgga.plan with
  | [] -> search
  | violations ->
      let n = Program.num_kernels ctx.program in
      let bad = List.filter_map Plan.violation_group violations in
      let comps_only =
        List.for_all (function Plan.Planes_dependent _ -> true | _ -> false) violations
      in
      let whole_plan_broken =
        List.exists (fun v -> Plan.violation_group v = None) violations
      in
      let degraded =
        if comps_only then begin
          (* Only the launch composition is illegal; the vertical
             partition underneath validated clean, so rebuild it with
             every group in its own launch instead of degrading all the
             way to identity. *)
          let groups = Plan.groups search.Hgga.plan in
          let plan = Plan.of_groups ~n groups in
          { search with Hgga.groups; plan; cost = Objective.plan_cost obj groups }
        end
        else if whole_plan_broken then identity_result ctx obj search
        else begin
          let groups =
            List.concat_map
              (fun g -> if List.mem g bad then List.map (fun k -> [ k ]) g else [ g ])
              (Plan.groups search.Hgga.plan)
          in
          let plan = Plan.of_groups ~n groups in
          { search with Hgga.groups; plan; cost = Objective.plan_cost obj groups }
        end
      in
      if validate degraded.Hgga.plan = [] then degraded else identity_result ctx obj search

let search_safe ?params ?checkpoint ?resume_from ?budget ?seed_plans ?on_generation
    ?interrupt ctx obj =
  match
    Obs.span ~cat:"pipeline" ~args:(phase_args ctx.program) "search" (fun () ->
        Hgga.solve ?params ?checkpoint ?resume_from ?budget ?seed_plans ?on_generation
          ?interrupt obj)
  with
  | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception e -> Error (Error.classify ~stage:Error.Search e)
  | search -> Ok (validated_result ctx obj search)

let apply_safe ctx obj search =
  match apply ctx search with
  | outcome -> Ok outcome
  | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
  | exception _ -> begin
      (* The searched plan failed to build or measure; degrade to the
         (always measurable) unfused program rather than lose the whole
         run. *)
      match apply ctx (identity_result ctx obj search) with
      | outcome -> Ok outcome
      | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
      | exception e -> Error (Error.classify ~stage:Error.Apply e)
    end

let run_safe ?params ?model ?sync_points ?guard ?inject ?checkpoint
    ?resume_from ?budget ~device program =
  match prepare_safe ?sync_points ~device program with
  | Error e -> Error e
  | Ok ctx -> begin
      let faults = Objective.zero_faults () in
      let injector = Option.map (fun cfg -> Inject.create ~faults cfg) inject in
      let guard = Guard.guarded ?config:guard ?inject:injector faults in
      let obj = objective ?model ~guard ~faults ctx in
      match search_safe ?params ?checkpoint ?resume_from ?budget ctx obj with
      | Error e -> Error e
      | Ok search -> apply_safe ctx obj search
    end

let pp_outcome ppf o =
  let n = Program.num_kernels o.context.program in
  let plan = o.search.Hgga.plan in
  (* [num_units] counts launches (horizontal packs collapse to one);
     it equals [num_groups] on a vertical plan, so vertical output is
     byte-identical to the historical format. *)
  let horizontal =
    let packs = Plan.horizontal_pack_count plan in
    if packs = 0 then ""
    else
      Format.asprintf " [%d horizontal, %d planes]" packs (Plan.horizontal_plane_count plan)
  in
  Format.fprintf ppf
    "@[<v>%s on %s:@,\
     %d original kernels -> %d units%s (%d fused kernels covering %d originals)@,\
     search: %d generations, %d evaluations, %.2f s@,\
     runtime: %.3f ms -> %.3f ms  speedup %.2fx@]"
    o.context.program.Program.name o.context.device.Device.name n
    (Plan.num_units plan) horizontal (Plan.fused_kernel_count plan)
    (Plan.fused_member_count plan)
    o.search.Hgga.stats.Hgga.generations o.search.Hgga.stats.Hgga.evaluations
    o.search.Hgga.stats.Hgga.wall_time_s
    (o.context.original_runtime *. 1e3)
    (o.fused_runtime *. 1e3) o.speedup
