(* kfuse — command-line driver for the kernel-fusion library.

   Subcommands:
     devices                    print the device zoo (paper Table IV)
     workloads                  list built-in workloads
     analyze  <workload>        dependency classes + reducible traffic
     search   <workload>        run the HGGA and print the best plan
     fuse     <workload>        search, apply, measure the speedup
     codegen  <workload>        emit pseudo-CUDA for the fused program *)

open Cmdliner

module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Traffic = Kf_graph.Traffic
module Plan = Kf_fusion.Plan
module Hgga = Kf_search.Hgga
module Objective = Kf_search.Objective
module Pipeline = Kfuse.Pipeline
module Table = Kf_util.Table
module Suite = Kf_workloads.Suite

(* --- workload + device parsing --- *)

let workload_names =
  [ "motivating"; "cloverleaf"; "tealeaf"; "scale-les"; "scale-les-rk"; "homme"; "video" ]

(* A program file is outside input: an unreadable or invalid one is a
   one-line classified error (exit 2), not an uncaught exception. *)
let load_program_file path =
  match Kf_ir.Program_io.parse_file path with
  | p -> p
  | exception ((Kf_ir.Program_io.Parse_error _ | Sys_error _) as e) ->
      Format.eprintf "kfuse: %s@."
        (Kf_robust.Error.to_string (Kf_robust.Error.classify ~stage:Kf_robust.Error.Io e));
      exit 2

(* Bad command-line input (an unknown workload, device or model, or a
   malformed workload spec) is a one-line classified error (exit 2) as
   well. *)
let invalid_argument msg =
  Format.eprintf "kfuse: invalid argument: %s@." msg;
  exit 2

let int_attr kv v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "%S is not an integer" kv)

let parse_workload = function
  | "motivating" -> Kf_workloads.Motivating.program ()
  | "cloverleaf" -> Kf_workloads.Cloverleaf.program ()
  | "tealeaf" -> Kf_workloads.Tealeaf.program ()
  | "scale-les" -> Kf_workloads.Scale_les.program ()
  | "scale-les-rk" -> Kf_workloads.Scale_les.rk_core ()
  | "homme" -> Kf_workloads.Homme.program ()
  | "video" -> Kf_workloads.Video.generate Kf_workloads.Video.default
  | s when String.length s > 6 && String.sub s 0 6 = "video:" ->
      (* video:frames=6,stages=3,load=5,seed=7 *)
      let spec = String.sub s 6 (String.length s - 6) in
      let module V = Kf_workloads.Video in
      let config =
        List.fold_left
          (fun (c : V.spec) kv ->
            match String.split_on_char '=' kv with
            | [ "frames"; v ] -> { c with V.frames = int_attr kv v }
            | [ "stages"; v ] -> { c with V.stages = int_attr kv v }
            | [ "load"; v ] -> { c with V.thread_load = int_attr kv v }
            | [ "seed"; v ] -> { c with V.seed = int_attr kv v }
            | _ -> invalid_arg (Printf.sprintf "unknown video attribute %S" kv))
          V.default
          (String.split_on_char ',' spec)
      in
      V.generate config
  | s when String.length s > 5 && String.sub s 0 5 = "file:" ->
      load_program_file (String.sub s 5 (String.length s - 5))
  | s when Filename.check_suffix s ".kf" -> load_program_file s
  | s when String.length s > 6 && String.sub s 0 6 = "suite:" ->
      (* suite:kernels=30,arrays=60,copies=4,sharing=4,load=8,kinship=2,seed=1 *)
      let spec = String.sub s 6 (String.length s - 6) in
      let config =
        List.fold_left
          (fun (c : Suite.config) kv ->
            match String.split_on_char '=' kv with
            | [ "kernels"; v ] -> { c with Suite.kernels = int_attr kv v }
            | [ "arrays"; v ] -> { c with Suite.arrays = int_attr kv v }
            | [ "copies"; v ] -> { c with Suite.data_copies = int_attr kv v }
            | [ "sharing"; v ] -> { c with Suite.sharing_set = int_attr kv v }
            | [ "load"; v ] -> { c with Suite.thread_load = int_attr kv v }
            | [ "kinship"; v ] -> { c with Suite.kinship = int_attr kv v }
            | [ "seed"; v ] -> { c with Suite.seed = int_attr kv v }
            | _ -> invalid_arg (Printf.sprintf "unknown suite attribute %S" kv))
          Suite.default
          (String.split_on_char ',' spec)
      in
      Suite.generate config
  | _ ->
      invalid_arg
        (Printf.sprintf
           "unknown workload (try: %s, suite:kernels=30,..., video:frames=6,..., or a .kf \
            program file)"
           (String.concat ", " workload_names))

let load_workload name =
  match parse_workload name with
  | p -> p
  | exception (Invalid_argument msg | Failure msg) ->
      invalid_argument (Printf.sprintf "workload %S: %s" name msg)

let device_of_name name =
  let name = if String.lowercase_ascii name = "maxwell" then "gtx750ti" else name in
  match Device.of_name name with
  | Some d -> d
  | None ->
      invalid_argument
        (Printf.sprintf "unknown device %S (%s)" name
           (String.concat ", " (List.map (fun (d : Device.t) -> d.Device.name) Device.extended)))

let model_of_name = function
  | "proposed" -> Objective.Proposed
  | "roofline" -> Objective.Roofline
  | "simple" -> Objective.Simple
  | "mwp" -> Objective.Mwp
  | other -> invalid_argument (Printf.sprintf "unknown model %S (proposed, roofline, simple, mwp)" other)

(* --- common args --- *)

let workload_arg =
  let doc = "Workload: one of motivating, cloverleaf, scale-les, scale-les-rk, homme, video, \
             suite:kernels=N,arrays=M,..., or video:frames=N,stages=M,..." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let device_arg =
  let doc = "Target device (k20x, k40, gtx750ti)." in
  Arg.(value & opt string "k20x" & info [ "d"; "device" ] ~docv:"DEVICE" ~doc)

let model_arg =
  let doc = "Objective model (proposed, roofline, simple, mwp)." in
  Arg.(value & opt string "proposed" & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let generations_arg =
  let doc = "Maximum GA generations." in
  Arg.(value & opt int Hgga.default_params.Hgga.max_generations & info [ "generations" ] ~doc)

let population_arg =
  let doc = "GA population size." in
  Arg.(value & opt int Hgga.default_params.Hgga.population_size & info [ "population" ] ~doc)

let seed_arg =
  let doc = "GA random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let no_horizontal_arg =
  let doc = "Restrict the search to vertical fusion only.  By default the search also \
             composes independent kernels side by side as per-plane sub-grids of one \
             launch (horizontal fusion); with this flag the search space, the results \
             and the printed output are byte-identical to the historical vertical-only \
             solver." in
  Arg.(value & flag & info [ "no-horizontal" ] ~doc)

let params_of generations population seed =
  { Hgga.default_params with Hgga.max_generations = generations; population_size = population; seed }

(* --- parallel-search options (islands, domains, migration) --- *)

type parallel_opts = {
  domains : int;
  islands : int;
  migration_interval : int;
  migration_size : int;
}

let parallel_term =
  let domains_arg =
    let doc = "Worker domains for the search (island steps with --islands > 1, child \
               construction otherwise).  Results are identical for any value: the \
               domain count is a throughput knob, never a result knob." in
    Arg.(value & opt int Hgga.default_params.Hgga.domains & info [ "domains" ] ~docv:"N" ~doc)
  in
  let islands_arg =
    let doc = "Split the population into N islands evolving in lockstep with periodic \
               ring migration (1 = classic panmictic GA).  A fixed island count gives \
               bit-identical results for any --domains value." in
    Arg.(value & opt int Hgga.default_params.Hgga.islands & info [ "islands" ] ~docv:"N" ~doc)
  in
  let interval_arg =
    let doc = "Generations between ring migrations (ignored with one island)." in
    Arg.(value & opt int Hgga.default_params.Hgga.migration_interval
         & info [ "migration-interval" ] ~docv:"N" ~doc)
  in
  let size_arg =
    let doc = "Elite copies each island emits per migration (0 disables migration)." in
    Arg.(value & opt int Hgga.default_params.Hgga.migration_size
         & info [ "migration-size" ] ~docv:"N" ~doc)
  in
  let make domains islands migration_interval migration_size =
    { domains; islands; migration_interval; migration_size }
  in
  Term.(const make $ domains_arg $ islands_arg $ interval_arg $ size_arg)

let params_with_parallel ?(horizontal = false) popts generations population seed =
  {
    (params_of generations population seed) with
    Hgga.domains = popts.domains;
    islands = popts.islands;
    migration_interval = popts.migration_interval;
    migration_size = popts.migration_size;
    horizontal;
  }

(* --- robustness options (checkpoint/resume, budgets, fault injection) --- *)

type robust_opts = {
  checkpoint : Hgga.checkpoint option;
  resume : string option;
  budget : Hgga.budget option;
  inject : Kf_robust.Inject.config option;
}

let robust_term =
  let checkpoint_arg =
    let doc = "Periodically snapshot the search state to $(docv) (see --checkpoint-every)." in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let every_arg =
    let doc = "Checkpoint every N generations." in
    Arg.(value & opt int 25 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let resume_arg =
    let doc = "Resume the search from a snapshot written by --checkpoint (same seed, \
               population and workload required).  The resumed search returns the \
               uninterrupted one's plan, cost and history, but counts more \
               evaluations: its objective starts with a cold cache." in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let budget_evals_arg =
    let doc = "Stop the search after this many objective evaluations, returning the \
               best-so-far plan." in
    Arg.(value & opt (some int) None & info [ "budget-evals" ] ~docv:"N" ~doc)
  in
  let budget_wall_arg =
    let doc = "Stop the search after this much wall time (seconds)." in
    Arg.(value & opt (some float) None & info [ "budget-wall" ] ~docv:"SECONDS" ~doc)
  in
  let max_fault_rate_arg =
    let doc = "Degrade to the best-so-far plan when the observed per-evaluation fault \
               rate reaches this fraction." in
    Arg.(value & opt (some float) None & info [ "max-fault-rate" ] ~docv:"RATE" ~doc)
  in
  let fault_inject_arg =
    let doc = "Inject deterministic evaluation faults (NaN/negative runtimes, crashes, \
               stalls, corrupt metadata) at this per-evaluation rate — robustness \
               testing." in
    Arg.(value & opt (some float) None & info [ "fault-inject" ] ~docv:"RATE" ~doc)
  in
  let fault_seed_arg =
    let doc = "Seed of the fault-injection RNG." in
    Arg.(value & opt int 1337 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let make checkpoint every resume budget_evals budget_wall max_fault_rate inject_rate
      fault_seed =
    let budget =
      match (budget_evals, budget_wall, max_fault_rate) with
      | None, None, None -> None
      | _ ->
          Some
            {
              Hgga.unlimited with
              Hgga.max_evaluations = budget_evals;
              max_wall_s = budget_wall;
              max_fault_rate;
            }
    in
    {
      checkpoint =
        Option.map (fun path -> { Hgga.path; every = max 1 every }) checkpoint;
      resume;
      budget;
      inject =
        Option.map
          (fun rate ->
            (* Raised during term evaluation, before any stage wrapper can
               classify it — turn it into the standard one-line error. *)
            try Kf_robust.Inject.config ~seed:fault_seed rate
            with Invalid_argument msg -> invalid_argument msg)
          inject_rate;
    }
  in
  Term.(const make $ checkpoint_arg $ every_arg $ resume_arg $ budget_evals_arg
        $ budget_wall_arg $ max_fault_rate_arg $ fault_inject_arg $ fault_seed_arg)

(* --- observability options (tracing, metrics, quiet) --- *)

type obs_opts = {
  trace : string option;
  trace_format : Kf_obs.Trace.format;
  metrics_out : string option;
  quiet : bool;
}

let obs_term =
  let trace_arg =
    let doc = "Stream structured telemetry (pipeline phases, one event per GA \
               generation, checkpoint writes) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let format_arg =
    let doc = "Trace format: $(b,jsonl) (one JSON object per line) or $(b,chrome) \
               (trace_event JSON for chrome://tracing / Perfetto)." in
    let fmt_conv =
      Arg.enum [ ("jsonl", Kf_obs.Trace.Jsonl); ("chrome", Kf_obs.Trace.Chrome) ]
    in
    Arg.(value & opt fmt_conv Kf_obs.Trace.Jsonl & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let metrics_arg =
    let doc = "Write the final counter/gauge registry (cache hits, evaluations, \
               simulated cycles, ...) as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress informational output (telemetry files are still written)." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let make trace trace_format metrics_out quiet = { trace; trace_format; metrics_out; quiet } in
  Term.(const make $ trace_arg $ format_arg $ metrics_arg $ quiet_arg)

(* Configure the sinks around [f]; always finish the trace stream (the
   Chrome format needs its closing suffix even on error paths) and dump
   the metrics registry on the way out. *)
let with_obs oopts f =
  (match oopts.trace with
  | Some path -> Kf_obs.Trace.configure ~format:oopts.trace_format path
  | None -> ());
  if oopts.trace <> None || oopts.metrics_out <> None then Kf_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Kf_obs.Trace.shutdown ();
      match oopts.metrics_out with
      | Some path -> Kf_obs.Metrics.write_file path
      | None -> ())
    f

let say oopts fmt =
  if oopts.quiet then Format.ifprintf Format.std_formatter fmt else Format.printf fmt

let print_search_health oopts ropts (stats : Hgga.stats) =
  let f = stats.Hgga.faults in
  if ropts.inject <> None || f.Objective.trapped + f.Objective.corrupted > 0 then
    say oopts "faults: %a@." Objective.pp_faults f;
  let threshold =
    match ropts.budget with
    | Some { Hgga.max_fault_rate = Some r; _ } -> r
    | _ -> 1.
  in
  match Kf_robust.Error.of_stop stats ~threshold with
  | Some e -> say oopts "degraded: %s (best-so-far plan returned)@." (Kf_robust.Error.to_string e)
  | None -> ()

(* --- subcommands --- *)

let devices_cmd =
  let run () =
    let t =
      Table.create ~title:"Device zoo (paper Table IV)"
        [
          ("device", Table.Left); ("arch", Table.Left); ("SMX", Table.Right);
          ("regs/SMX", Table.Right); ("SMEM/SMX", Table.Right); ("peak", Table.Right);
          ("GMEM BW", Table.Right);
        ]
    in
    List.iter
      (fun (d : Device.t) ->
        Table.add_row t
          [
            d.Device.name;
            Device.arch_name d.Device.arch;
            string_of_int d.Device.smx_count;
            Printf.sprintf "%dK" (d.Device.registers_per_smx / 1024);
            Printf.sprintf "%dKB" (d.Device.smem_per_smx / 1024);
            Printf.sprintf "%.2f TFLOPS" (d.Device.peak_gflops /. 1000.);
            Printf.sprintf "%.0f GB/s" d.Device.gmem_bandwidth_gbs;
          ])
      Device.extended;
    Table.print t
  in
  Cmd.v (Cmd.info "devices" ~doc:"Print the device descriptions") Term.(const run $ const ())

let workloads_cmd =
  let run () =
    List.iter
      (fun name ->
        let p = load_workload name in
        Format.printf "%-14s %a@." name Program.pp_stats p)
      workload_names
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List built-in workloads") Term.(const run $ const ())

let analyze_cmd =
  let run workload =
    let p = load_workload workload in
    Format.printf "%a@.@." Program.pp_stats p;
    let dd = Datadep.build p in
    let exec = Exec_order.build dd in
    let counts = Hashtbl.create 4 in
    Array.iter
      (fun cls ->
        let c = try Hashtbl.find counts cls with Not_found -> 0 in
        Hashtbl.replace counts cls (c + 1))
      (Datadep.classes dd);
    Format.printf "array classes:@.";
    List.iter
      (fun cls ->
        let c = try Hashtbl.find counts cls with Not_found -> 0 in
        Format.printf "  %-12s %d@." (Datadep.class_to_string cls) c)
      [ Datadep.Read_only; Datadep.Read_write; Datadep.Expandable; Datadep.Write_only ];
    Format.printf "relaxation cost: %.1f MB of redundant copies@."
      (float_of_int (Exec_order.extra_memory_bytes exec) /. 1048576.);
    Format.printf "%a@." Traffic.pp_report (Traffic.analyze exec)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Dependency and traffic analysis") Term.(const run $ workload_arg)

let search_cmd =
  let run workload device model generations population seed no_horizontal popts ropts
      oopts =
    with_obs oopts @@ fun () ->
    let p = load_workload workload in
    let device = device_of_name device in
    let ctx = Pipeline.prepare ~device p in
    let faults = Objective.zero_faults () in
    let injector = Option.map (fun cfg -> Kf_robust.Inject.create ~faults cfg) ropts.inject in
    let guard = Kf_robust.Guard.guarded ?inject:injector faults in
    let obj =
      Pipeline.objective ~model:(model_of_name model) ~guard ~faults ctx
    in
    let r =
      match
        Hgga.solve
          ~params:
            (params_with_parallel ~horizontal:(not no_horizontal) popts generations
               population seed)
          ?checkpoint:ropts.checkpoint ?resume_from:ropts.resume ?budget:ropts.budget obj
      with
      | r -> r
      | exception ((Stack_overflow | Out_of_memory) as fatal) -> raise fatal
      | exception e ->
          Format.eprintf "kfuse: %s@."
            (Kf_robust.Error.to_string (Kf_robust.Error.classify ~stage:Kf_robust.Error.Search e));
          exit 2
    in
    say oopts "best plan: %a@." Plan.pp r.Hgga.plan;
    say oopts
      "projected cost %.3f ms (measured original %.3f ms) | %d generations, %d evaluations, %.2f s@."
      (r.Hgga.cost *. 1e3)
      (ctx.Pipeline.original_runtime *. 1e3)
      r.Hgga.stats.Hgga.generations r.Hgga.stats.Hgga.evaluations r.Hgga.stats.Hgga.wall_time_s;
    if Kf_obs.Metrics.enabled () then begin
      Kf_obs.Metrics.set
        (Kf_obs.Metrics.gauge "plan.horizontal_groups")
        (float_of_int (Plan.horizontal_pack_count r.Hgga.plan));
      Kf_obs.Metrics.set
        (Kf_obs.Metrics.gauge "plan.horizontal_planes")
        (float_of_int (Plan.horizontal_plane_count r.Hgga.plan));
      say oopts "cache: %.1f%% hit rate over %d lookups@."
        (Objective.cache_hit_rate obj *. 100.)
        (let cs = Objective.cache_stats obj in
         cs.Objective.hits + cs.Objective.misses)
    end;
    print_search_health oopts ropts r.Hgga.stats
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Run the HGGA search and print the best plan")
    Term.(const run $ workload_arg $ device_arg $ model_arg $ generations_arg $ population_arg
          $ seed_arg $ no_horizontal_arg $ parallel_term
          $ robust_term $ obs_term)

let fuse_cmd =
  let run workload device model generations population seed no_horizontal popts ropts
      oopts =
    with_obs oopts @@ fun () ->
    let p = load_workload workload in
    let device = device_of_name device in
    match
      Pipeline.run_safe
        ~params:
          (params_with_parallel ~horizontal:(not no_horizontal) popts generations population
             seed)
        ~model:(model_of_name model) ?inject:ropts.inject ?checkpoint:ropts.checkpoint
        ?resume_from:ropts.resume ?budget:ropts.budget ~device p
    with
    | Ok o ->
        if Kf_obs.Metrics.enabled () then begin
          Kf_obs.Metrics.set
            (Kf_obs.Metrics.gauge "plan.horizontal_groups")
            (float_of_int (Plan.horizontal_pack_count o.Pipeline.search.Hgga.plan));
          Kf_obs.Metrics.set
            (Kf_obs.Metrics.gauge "plan.horizontal_planes")
            (float_of_int (Plan.horizontal_plane_count o.Pipeline.search.Hgga.plan))
        end;
        say oopts "%a@." Pipeline.pp_outcome o;
        print_search_health oopts ropts o.Pipeline.search.Hgga.stats
    | Error e ->
        Format.eprintf "kfuse: %s@." (Kf_robust.Error.to_string e);
        exit 2
  in
  Cmd.v
    (Cmd.info "fuse" ~doc:"Search, apply the fusion, and measure the speedup (fault-tolerant)")
    Term.(const run $ workload_arg $ device_arg $ model_arg $ generations_arg $ population_arg
          $ seed_arg $ no_horizontal_arg $ parallel_term
          $ robust_term $ obs_term)

let pareto_cmd =
  let run workload device devices model generations population seed oopts =
    with_obs oopts @@ fun () ->
    let p = load_workload workload in
    let primary = device_of_name device in
    let extras =
      List.filter_map
        (fun s -> if String.trim s = "" then None else Some (device_of_name (String.trim s)))
        (String.split_on_char ',' devices)
    in
    if extras = [] then invalid_arg "pareto: --devices needs at least one extra device";
    let po =
      Pipeline.portfolio
        ~params:(params_of generations population seed)
        ~model:(model_of_name model) ~devices:extras ~device:primary p
    in
    let pr = po.Pipeline.portfolio in
    let n = Program.num_kernels p in
    let pp_groups ppf groups = Plan.pp ppf (Plan.of_groups ~n groups) in
    say oopts "search on %s: %d generations, %d evaluations, %d plans on the front@."
      primary.Device.name pr.Hgga.primary.Hgga.stats.Hgga.generations
      pr.Hgga.primary.Hgga.stats.Hgga.evaluations (List.length pr.Hgga.front);
    let t =
      Table.create ~title:"Best plan per device"
        [ ("device", Table.Left); ("projected", Table.Right); ("plan", Table.Left) ]
    in
    Array.iteri
      (fun i (d : Device.t) ->
        let e = pr.Hgga.best_per_device.(i) in
        Table.add_row t
          [
            d.Device.name;
            Printf.sprintf "%.3f ms" (e.Objective.pf_costs.(i) *. 1e3);
            Format.asprintf "%a" pp_groups e.Objective.pf_plan;
          ])
      pr.Hgga.devices;
    if pr.Hgga.best_per_device <> [||] then Table.print t;
    say oopts "@.Pareto front (projected ms per device):@.";
    List.iteri
      (fun i (e : Objective.pareto_entry) ->
        say oopts "  #%d  [%s]  %a@." (i + 1)
          (String.concat "  "
             (Array.to_list (Array.map (fun c -> Printf.sprintf "%.3f" (c *. 1e3)) e.Objective.pf_costs)))
          pp_groups e.Objective.pf_plan)
      pr.Hgga.front
  in
  let devices_arg =
    let doc = "Comma-separated extra devices to cost every candidate on (the searched \
               device is always index 0)." in
    Arg.(value & opt string "k40,gtx750ti,p100,v100" & info [ "devices" ] ~docv:"NAMES" ~doc)
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"One search, a whole device portfolio: per-device winners and the \
             cross-device Pareto front")
    Term.(const run $ workload_arg $ device_arg $ devices_arg $ model_arg $ generations_arg
          $ population_arg $ seed_arg $ obs_term)

let graph_cmd =
  let run workload kind plan_overlay generations population seed =
    let p = load_workload workload in
    let dd = Datadep.build p in
    match kind with
    | "data" -> print_string (Kf_graph.Dot.data_dependency dd)
    | "exec" ->
        let exec = Exec_order.build dd in
        if plan_overlay then begin
          let ctx = Pipeline.prepare ~device:Device.k20x p in
          let obj = Pipeline.objective ctx in
          let r = Hgga.solve ~params:(params_of generations population seed) obj in
          print_string (Kf_graph.Dot.order_of_execution_with_groups exec (Plan.groups r.Hgga.plan))
        end
        else print_string (Kf_graph.Dot.order_of_execution exec)
    | other -> invalid_arg (Printf.sprintf "graph kind must be data or exec, not %S" other)
  in
  let kind_arg =
    let doc = "Graph to emit: data (paper Fig. 1) or exec (paper Fig. 2)." in
    Arg.(value & opt string "data" & info [ "k"; "kind" ] ~docv:"KIND" ~doc)
  in
  let plan_arg =
    let doc = "Overlay the best fusion plan as clusters (exec graphs only)." in
    Arg.(value & flag & info [ "plan" ] ~doc)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Emit Graphviz DOT for the dependency graphs")
    Term.(const run $ workload_arg $ kind_arg $ plan_arg $ generations_arg $ population_arg $ seed_arg)

let tune_cmd =
  let run workload device generations population seed =
    let p = load_workload workload in
    let device = device_of_name device in
    let candidates, best =
      Kfuse.Block_tuner.tune ~params:(params_of generations population seed) ~device p
    in
    Format.printf "%a" Kfuse.Block_tuner.pp_candidates candidates;
    Format.printf "best tile: %dx%d@." best.Kfuse.Block_tuner.block_x
      best.Kfuse.Block_tuner.block_y
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Sweep thread-block tiles and report fusion outcomes")
    Term.(const run $ workload_arg $ device_arg $ generations_arg $ population_arg $ seed_arg)

let report_cmd =
  let run workload device model generations population seed out verify =
    let p = load_workload workload in
    let device = device_of_name device in
    let ctx = Pipeline.prepare ~device p in
    let obj = Pipeline.objective ~model:(model_of_name model) ctx in
    let search = Hgga.solve ~params:(params_of generations population seed) obj in
    let o = Pipeline.apply ctx search in
    match out with
    | None -> print_string (Kfuse.Report.render ~verify o)
    | Some path ->
        Kfuse.Report.write_file ~verify path o;
        Format.printf "wrote %s@." path
  in
  let out_arg =
    let doc = "Write the markdown report to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let verify_arg =
    let doc = "Also run the execution oracle and include its verdict." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Produce a markdown fusion report")
    Term.(const run $ workload_arg $ device_arg $ model_arg $ generations_arg $ population_arg
          $ seed_arg $ out_arg $ verify_arg)

let verify_cmd =
  let run workload device generations population seed =
    let p = load_workload workload in
    let device = device_of_name device in
    (* The oracle executes every site; scale the grid down (fusion
       legality and semantics are size-invariant, paper §II-C). *)
    let g = p.Program.grid in
    let small =
      Kf_ir.Grid.make
        ~nx:(min g.Kf_ir.Grid.nx (4 * g.Kf_ir.Grid.block_x))
        ~ny:(min g.Kf_ir.Grid.ny (4 * g.Kf_ir.Grid.block_y))
        ~nz:(min g.Kf_ir.Grid.nz 4) ~block_x:g.Kf_ir.Grid.block_x ~block_y:g.Kf_ir.Grid.block_y
    in
    let p = Program.with_grid p small in
    let ctx = Pipeline.prepare ~device p in
    let obj = Pipeline.objective ctx in
    let r = Hgga.solve ~params:(params_of generations population seed) obj in
    let fp =
      Kf_fusion.Fused_program.build ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec
        r.Hgga.plan
    in
    Format.printf "plan: %a@." Plan.pp r.Hgga.plan;
    let v = Kf_exec.Semantics.check ~device fp in
    if v.Kf_exec.Semantics.equivalent then
      Format.printf "VERIFIED: fused execution matches the original bitwise (%d kernels -> %d units)@."
        (Program.num_kernels p) (Plan.num_groups r.Hgga.plan)
    else begin
      Format.printf "MISMATCH: %d sites differ (max |diff| %g, array %d)@."
        v.Kf_exec.Semantics.mismatched_sites v.Kf_exec.Semantics.max_abs_diff
        v.Kf_exec.Semantics.worst_array;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check the best plan's semantics with the execution oracle")
    Term.(const run $ workload_arg $ device_arg $ generations_arg $ population_arg $ seed_arg)

let export_cmd =
  let run workload path =
    let p = load_workload workload in
    Kf_ir.Program_io.write_file path p;
    Format.printf "wrote %s (%d kernels, %d arrays)@." path (Program.num_kernels p)
      (Program.num_arrays p)
  in
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output .kf path")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a built-in workload as a .kf program file")
    Term.(const run $ workload_arg $ path_arg)

let codegen_cmd =
  let run workload device generations population seed =
    let p = load_workload workload in
    let device = device_of_name device in
    let ctx = Pipeline.prepare ~device p in
    let obj = Pipeline.objective ctx in
    let search = Hgga.solve ~params:(params_of generations population seed) obj in
    let o = Pipeline.apply ctx search in
    print_string (Kf_fusion.Codegen.emit_program o.Pipeline.fused)
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit pseudo-CUDA for the fused program")
    Term.(const run $ workload_arg $ device_arg $ generations_arg $ population_arg $ seed_arg)

let serve_cmd =
  let run socket workers max_queue cache cache_entries max_sessions slo_ms persist_every
      progress_every metrics_out quiet =
    (* the daemon always keeps metrics: they are its only cheap health
       surface, and the bench/CI harnesses read them *)
    Kf_obs.Metrics.set_enabled true;
    let log =
      if quiet then ignore
      else fun msg ->
        Printf.printf "kfuse serve: %s\n%!" msg
    in
    let config =
      {
        (Kf_serve.Server.default ~socket_path:socket) with
        Kf_serve.Server.workers;
        max_queue;
        cache_path = cache;
        cache_entries;
        max_sessions;
        default_slo_ms = slo_ms;
        persist_every_s = persist_every;
        progress_every;
        log;
      }
    in
    let srv = Kf_serve.Server.start config in
    Kf_serve.Server.install_signal_handlers srv;
    Kf_serve.Server.wait srv;
    match metrics_out with Some path -> Kf_obs.Metrics.write_file path | None -> ()
  in
  let socket_arg =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(value & opt string "kfuse.sock" & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains executing requests." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Admission-queue bound; beyond it requests get a retriable overload \
               rejection." in
    Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Persist the warm group-verdict cache to $(docv) (periodically and on \
               shutdown) and restore it on start." in
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)
  in
  let cache_entries_arg =
    let doc = "Cap on cached (program, device, model) triples (LRU eviction); bounds \
               the persisted cache file under long streaming sessions." in
    Arg.(value & opt int 64 & info [ "cache-entries" ] ~docv:"N" ~doc)
  in
  let sessions_arg =
    let doc = "Cap on live streaming sessions (LRU eviction; an evicted session \
               transparently rebuilds with one full search)." in
    Arg.(value & opt int 8 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let slo_arg =
    let doc = "Default per-decision latency target (milliseconds) for streaming \
               sessions that do not set slo_ms themselves; decisions degrade to a \
               greedy plan repair when the budget is too tight for a search." in
    Arg.(value & opt (some float) None & info [ "slo-ms" ] ~docv:"MS" ~doc)
  in
  let persist_arg =
    let doc = "Seconds between periodic cache persists." in
    Arg.(value & opt float 30. & info [ "persist-every" ] ~docv:"SECONDS" ~doc)
  in
  let progress_arg =
    let doc = "Generations between streamed progress events (for requests that opt \
               in)." in
    Arg.(value & opt int 5 & info [ "progress-every" ] ~docv:"N" ~doc)
  in
  let metrics_arg =
    let doc = "Write the final metrics registry (latency histogram, admission \
               counters, cache gauges) as JSON to $(docv) after the drain." in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress daemon log lines." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fusion daemon (line-delimited JSON over a Unix socket)"
       ~man:
         [
           `S Manpage.s_description;
           `P "Serves fusion searches over a Unix-domain socket: one JSON request per \
               line in; a stream of admitted/started/progress events and exactly one \
               result or error event per request out.  Admission is bounded (overload \
               yields a retriable rejection), deadlines are enforced from admission, \
               request faults are quarantined, SIGTERM/SIGINT drain gracefully, and \
               the warm verdict cache survives restarts via $(b,--cache).  Requests \
               naming a $(b,session) stream program edits: each request's program is \
               diffed against the session's previous version and answered by a \
               warm-started repair search within the $(b,--slo-ms) ladder.";
         ])
    Term.(const run $ socket_arg $ workers_arg $ queue_arg $ cache_arg $ cache_entries_arg
          $ sessions_arg $ slo_arg $ persist_arg $ progress_arg $ metrics_arg $ quiet_arg)

let () =
  let info =
    Cmd.info "kfuse" ~version:"1.0.0"
      ~doc:"Scalable kernel fusion for memory-bound GPU applications (SC'14 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            devices_cmd; workloads_cmd; analyze_cmd; search_cmd; fuse_cmd; pareto_cmd;
            codegen_cmd; graph_cmd; tune_cmd; export_cmd; verify_cmd; report_cmd; serve_cmd;
          ]))
