(* The decision benchmark.

     bash perfbench/run.sh --workload oneshot-apps --seed 1 --seconds 20 --trace 0

   Workloads: oneshot-apps, stream-edits, serve-mixed (see README.md).
   With --trace 0 it measures the end-to-end metrics of one workload;
   with --trace 1 it makes an untraced reference pass and then replays
   the same decisions with the benchmark's layer spans, [Kf_obs.Trace]
   and [Kf_obs.Metrics] on, and reports the per-layer metrics.  Every
   metric is printed by name with its unit; the last line of standard
   output is one JSON object with the keys correct, attempted, failed and
   metrics. *)

module Metrics = Kf_obs.Metrics

type measured = {
  setup_s : float list;  (** repeated set-up times; the median is reported *)
  timed : Common.decision list;  (** the pass the metrics describe *)
  elapsed_s : float;  (** wall time of that pass *)
  heap_mb : float;  (** peak major heap after that pass *)
  others : Common.decision list;  (** other passes, for the determinism check *)
  layers : (string * string * float) list;  (** per-layer metrics (traced runs) *)
}

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let timed f =
  let t0 = Common.now () in
  let v = f () in
  (v, Common.now () -. t0)

let sum_wall ds = List.fold_left (fun acc d -> acc +. d.Common.d_wall_s) 0. ds

(* --- traced passes --- *)

type traced = {
  trace : Spans.file;  (** the benchmark's and the program's spans *)
  minor_words : float;
  major_collections : int;
  counter : string -> float;  (** [Kf_obs.Metrics] counter growth over the pass *)
}

let counter_value name = float_of_int (Option.value (Metrics.find name) ~default:0)
let counters_read = [ "sim.kernel_runs"; "sim.cycles"; "serve.cached_results" ]

(* Run [f] with [Kf_obs.Trace] (which also records the benchmark's
   spans) and [Kf_obs.Metrics] on. *)
let with_tracing ~tag f =
  let trace_path = Common.out_path ("trace-" ^ tag ^ ".jsonl") in
  Metrics.set_enabled true;
  Kf_obs.Trace.configure trace_path;
  let before = List.map (fun n -> (n, counter_value n)) counters_read in
  let g0 = Gc.quick_stat () in
  let v, elapsed = timed f in
  let g1 = Gc.quick_stat () in
  let after = List.map (fun n -> (n, counter_value n)) counters_read in
  Kf_obs.Trace.shutdown ();
  Metrics.set_enabled false;
  ( v,
    elapsed,
    {
      trace = Spans.read trace_path;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      counter = (fun n -> List.assoc n after -. List.assoc n before);
    } )

(* The per-layer metrics of one traced pass of [n] decisions.
   [reference] is the untraced pass over the same decisions. *)
let layer_metrics ~traced:tr ~decisions ~reference ~domains2 =
  let n = float_of_int (max 1 (List.length decisions)) in
  let c = Common.Counters.get in
  let ratio = Common.Counters.ratio in
  let spans = tr.trace.Spans.spans in
  let span_total name = Spans.total_by_name spans name in
  let selfs = Spans.self_by_name spans in
  let self name = Option.value (Hashtbl.find_opt selfs name) ~default:0. in
  let program_span name = Option.value (List.assoc_opt name tr.trace.Spans.program) ~default:0. in
  (* the search: Hgga.solve spans, or inside Stream.step what is left
     once the version's prepare and objective are taken out *)
  let solve_s = span_total "hgga.solve" +. self "stream.step" in
  let memo name =
    ratio (c ("struct_memo." ^ name ^ ".hits"))
      (c ("struct_memo." ^ name ^ ".hits") +. c ("struct_memo." ^ name ^ ".misses"))
  in
  let traced_wall = sum_wall decisions and ref_wall = sum_wall reference in
  [
    ("hgga.solve_s", "s", solve_s /. n);
    ("hgga.self_s", "s", (solve_s -. c "objective.eval_s") /. n);
    ("hgga.generations", "count", ratio (c "hgga.generations") (c "hgga.searches"));
    ("struct_memo.merge.hit_ratio", "ratio", memo "merge");
    ("struct_memo.kin.hit_ratio", "ratio", memo "kin");
    ("struct_memo.closure.hit_ratio", "ratio", memo "closure");
    ("struct_memo.sccs.hit_ratio", "ratio", memo "sccs");
    ("struct_memo.refine.hit_ratio", "ratio", memo "refine");
    ( "objective.group_hit_ratio",
      "ratio",
      ratio (c "objective.group_hits") (c "objective.group_hits" +. c "objective.group_misses") );
    ( "objective.plan_hit_ratio",
      "ratio",
      ratio (c "objective.plan_hits") (c "objective.plan_hits" +. c "objective.plan_misses") );
    ("objective.evals", "count", c "objective.evals" /. n);
    ("objective.eval_s", "s", c "objective.eval_s" /. n);
    ("objective.evals_per_s", "1/s", ratio (c "objective.evals") solve_s);
    ("objective.alloc_words_per_eval", "words", ratio (c "objective.alloc_words") (c "objective.evals"));
    ( "objective.portfolio_rows",
      "count",
      ratio (c "objective.portfolio_rows") (c "objective.portfolio_decisions") );
    ("pipeline.prepare_s", "s", span_total "pipeline.prepare" /. n);
    ("pipeline.objective_s", "s", span_total "pipeline.objective" /. n);
    ("graph.analyze_s", "s", program_span "analyze" /. n);
    ( "sim.baseline_s",
      "s",
      (program_span "measure" +. program_span "measure-portfolio" +. span_total "sim.portfolio_baseline")
      /. n );
    ("sim.kernel_runs", "count", tr.counter "sim.kernel_runs" /. n);
    ("fusion.apply_s", "s", span_total "pipeline.apply" /. n);
    ("sim.cycles", "count", tr.counter "sim.cycles" /. n);
    ("stream.step_s", "s", span_total "stream.step" /. n);
    ("stream.diff_s", "s", span_total "stream.diff" /. n);
    ("stream.warm_plan_s", "s", span_total "stream.warm_plan" /. n);
    ("stream.reused_groups", "count", c "stream.reused" /. n);
    ("stream.changed_kernels", "count", c "stream.changed" /. n);
    ("serve.admit_s", "s", span_total "serve.admit" /. n);
    ("serve.queue_s", "s", span_total "serve.queue" /. n);
    ("serve.exec_s", "s", span_total "serve.exec" /. n);
    ("serve.cache_hit_ratio", "ratio", ratio (c "serve.cached") (c "serve.oneshot"));
    ("serve.cached_results", "count", tr.counter "serve.cached_results");
    ("gc.minor_words_per_decision", "words", tr.minor_words /. n);
    ("gc.major_collections", "count", float_of_int tr.major_collections);
    ("trace.overhead", "ratio", ratio traced_wall ref_wall -. 1.);
    ("trace.coverage", "ratio", Spans.min_coverage spans);
    ( "hgga.domains2_speedup",
      "x",
      match domains2 with None -> 0. | Some ds -> ratio ref_wall (sum_wall ds) );
    ("host_cores", "count", float_of_int (Domain.recommended_domain_count ()));
  ]

(* --- the three workloads --- *)

(* oneshot-apps decides its whole list a fixed number of times: one pass
   per 6 s asked for (a pass takes 7-10 s on a 2-core host), so every
   run of one length decides each item equally often. *)
let oneshot_passes seconds = max 1 (int_of_float seconds / 6)

(* Set-up is repeated through the run, so that its median spans the
   host's slow and fast periods: [every] decisions of the timed pass, and
   before and after it.  For the workloads that decide one at a time,
   [decisions_per_s] divides by the time spent deciding, which leaves
   these samples out. *)
let setup_samples k f = List.init k (fun _ -> snd (f ()))

(* [k] samples at each moment: the first one after a decision also pays
   for the garbage the decision left, which the median then ignores. *)
let sampling ~every ~k setup =
  let samples = ref [] and n = ref 0 in
  let between () =
    incr n;
    if !n mod every = 0 then samples := setup_samples k setup @ !samples
  in
  (samples, between)

let untraced ~setup ~before ~every ~k pass =
  let samples, between = sampling ~every ~k setup in
  let first = setup_samples before setup in
  let ds = pass between in
  let heap = heap_mb () in
  let last = setup_samples before setup in
  {
    setup_s = first @ !samples @ last;
    timed = ds;
    elapsed_s = sum_wall ds;
    heap_mb = heap;
    others = [];
    layers = [];
  }

let oneshot ~seed ~seconds ~trace =
  let setup () = Oneshot.setup ~seed in
  let items, s = setup () in
  if not trace then
    untraced ~setup ~before:3 ~every:1 ~k:3 (fun between ->
        Oneshot.pass ~between ~traced:false ~limit:(`Passes (oneshot_passes seconds)) items)
  else begin
    let reference = Oneshot.pass ~traced:false ~limit:(`Passes 1) items in
    let limit = `Count (List.length reference) in
    let ds, elapsed, tr =
      with_tracing ~tag:(Printf.sprintf "oneshot-apps-%d" seed) (fun () ->
          Oneshot.pass ~traced:true ~limit items)
    in
    (* islands fixed (one), two worker domains: plans must not change *)
    let d2 = Oneshot.pass ~domains:2 ~traced:false ~limit items in
    let layers = layer_metrics ~traced:tr ~decisions:ds ~reference ~domains2:(Some d2) in
    { setup_s = [ s ]; timed = ds; elapsed_s = elapsed; heap_mb = heap_mb (); others = reference @ d2; layers }
  end

let stream_edits ~seed ~seconds ~trace =
  let trace_inputs =
    Stream_edits.make_trace ~loops:10
      ~pool_seed:Kf_workloads.Suite.default.Kf_workloads.Suite.seed ~seed ()
  in
  let setup () = Stream_edits.open_session trace_inputs in
  if not trace then
    let session, _ = setup () in
    untraced ~setup ~before:2 ~every:10 ~k:2 (fun between ->
        Stream_edits.pass ~between ~traced:false ~limit:(`Seconds seconds) session)
  else begin
    let session, s = setup () in
    let reference = Stream_edits.pass ~traced:false ~limit:(`Seconds (seconds /. 2.)) session in
    let replay, _ = setup () in
    let ds, elapsed, tr =
      with_tracing ~tag:(Printf.sprintf "stream-edits-%d" seed) (fun () ->
          Stream_edits.pass ~traced:true ~limit:(`Count (List.length reference)) replay)
    in
    let layers = layer_metrics ~traced:tr ~decisions:ds ~reference ~domains2:None in
    { setup_s = [ s ]; timed = ds; elapsed_s = elapsed; heap_mb = heap_mb (); others = reference; layers }
  end

(* serve-mixed does fixed work too: each client makes [per_segment]
   requests in each of six segments, about what it makes in a sixth of
   the seconds asked for on a 2-core host (five requests a second), so
   the heap peak and the percentiles cover the same requests on a slow
   host as on a fast one. *)
let serve_segments = 6
let per_segment seconds = max 1 (int_of_float (Float.round (seconds *. 5. /. float_of_int serve_segments)))

let serve_mixed ~seed ~seconds ~trace =
  let inputs = Serve_mixed.inputs ~seed in
  Serve_mixed.prime inputs;
  let setup () =
    let d, s = Serve_mixed.start ~name:"setup" () in
    Serve_mixed.stop d;
    ((), s)
  in
  let flatten results = List.concat (Array.to_list results) in
  let requests = per_segment seconds in
  if not trace then begin
    (* between the segments, with the clients idle, two more set-up
       samples *)
    let before = setup_samples 3 setup in
    let daemon, s = Serve_mixed.start () in
    let results = ref [] and elapsed = ref 0. and during = ref [] in
    for segment = 0 to serve_segments - 1 do
      let r, e = timed (fun () -> Serve_mixed.pass ~first:(segment * requests) daemon inputs ~requests) in
      results := !results @ flatten r;
      elapsed := !elapsed +. e;
      if segment < serve_segments - 1 then during := setup_samples 2 setup @ !during
    done;
    let heap = heap_mb () in
    Serve_mixed.stop daemon;
    let after = setup_samples 3 setup in
    {
      setup_s = before @ (s :: !during) @ after;
      timed = !results;
      elapsed_s = !elapsed;
      heap_mb = heap;
      others = [];
      layers = [];
    }
  end
  else begin
    let requests = requests * serve_segments / 2 in
    let daemon, s = Serve_mixed.start () in
    let reference = Serve_mixed.pass daemon inputs ~requests in
    Serve_mixed.stop daemon;
    let replay, _ = Serve_mixed.start () in
    let results, elapsed, tr =
      with_tracing ~tag:(Printf.sprintf "serve-mixed-%d" seed) (fun () ->
          Serve_mixed.pass replay inputs ~requests)
    in
    let heap = heap_mb () in
    Serve_mixed.stop replay;
    let ds = flatten results and reference = flatten reference in
    let layers = layer_metrics ~traced:tr ~decisions:ds ~reference ~domains2:None in
    { setup_s = [ s ]; timed = ds; elapsed_s = elapsed; heap_mb = heap; others = reference; layers }
  end

let workloads = [ ("oneshot-apps", oneshot); ("stream-edits", stream_edits); ("serve-mixed", serve_mixed) ]

(* --- determinism --- *)

(* Every decision of one slot must carry one digest: within this run,
   and against earlier runs of this same build with the same seed (the
   file is named after the executable's digest, so a rebuilt program
   starts afresh; across commits, only the anchors' [plans_changed] is
   reported). *)
let determinism ~workload ~seed decisions =
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Common.out_path (Printf.sprintf "digests-%s-%d-%s.txt" workload seed build) in
  let known = Hashtbl.create 64 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              match String.split_on_char ' ' (input_line ic) with
              | [ slot; d ] -> Hashtbl.replace known slot d
              | _ -> ()
            done
          with End_of_file -> ()));
  let mismatches = ref [] in
  List.iter
    (fun (d : Common.decision) ->
      if d.Common.d_failure = None then
        match Hashtbl.find_opt known d.Common.d_slot with
        | Some prev when prev <> d.Common.d_digest ->
            mismatches :=
              Printf.sprintf "slot %s: digest %s, earlier %s" d.Common.d_slot d.Common.d_digest prev
              :: !mismatches
        | Some _ -> ()
        | None -> Hashtbl.replace known d.Common.d_slot d.Common.d_digest)
    decisions;
  let oc = open_out path in
  Hashtbl.iter (fun slot d -> Printf.fprintf oc "%s %s\n" slot d) known;
  close_out oc;
  List.rev !mismatches

(* --- report --- *)

(* The decision times the percentiles are taken over.  oneshot-apps
   decides a fixed list a few times per run, so each decision counts with
   its item's mean time over the run's passes: one decision caught in a
   slow period of the host then moves the percentiles by a third as
   much. *)
let decision_times workload decisions =
  if workload <> "oneshot-apps" then List.map (fun d -> d.Common.d_wall_s) decisions
  else
    List.map
      (fun d ->
        let same = List.filter (fun e -> e.Common.d_slot = d.Common.d_slot) decisions in
        sum_wall same /. float_of_int (List.length same))
      decisions

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " oneshot-apps | stream-edits | serve-mixed");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists Common.out_dir) then Sys.mkdir Common.out_dir 0o755;
  let traced = !trace = 1 in
  let m, workload_s = timed (fun () -> run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:traced) in
  (* after the workload and its heap reading, so that the anchors' own
     searches are no part of [peak_heap_mb] *)
  let anchors, anchors_s = timed Anchors.run in
  (* correctness, outside the timed region *)
  let checked, checks_s =
    timed @@ fun () ->
    Check.replay_all (List.filter_map (fun (d : Common.decision) -> d.Common.d_pair) m.timed);
    List.map
      (fun (d : Common.decision) ->
        match (d.Common.d_failure, d.Common.d_pair) with
        | Some f, _ -> (d, Some f, 0.)
        | None, None -> (d, Some "no plan", 0.)
        | None, Some (p, plan) ->
            let v = Check.pair p plan in
            (d, v.Check.failure, v.Check.speedup))
      m.timed
  in
  Printf.printf "phases: workload %.1f s, anchors %.1f s, output checks %.1f s (%d pairs replayed)\n"
    workload_s anchors_s checks_s (Hashtbl.length Check.memo);
  let failed = List.filter (fun (_, f, _) -> f <> None) checked in
  let nondeterministic = determinism ~workload:!workload ~seed:!seed (m.timed @ m.others) in
  (* Only oneshot-apps decides through a sequence of separate layer
     calls; a stream step's search has no span of its own, and the three
     serve phases tile a request by construction. *)
  let coverage_low =
    match List.assoc_opt "trace.coverage" (List.map (fun (n, _, v) -> (n, v)) m.layers) with
    | Some cov when cov < 0.9 && !workload = "oneshot-apps" ->
        [ Printf.sprintf "layer spans cover only %.3f of a decision" cov ]
    | _ -> []
  in
  let problems =
    anchors.Anchors.failures @ nondeterministic @ coverage_low
    @ List.map
        (fun ((d : Common.decision), f, _) ->
          Printf.sprintf "decision %s failed: %s" d.Common.d_slot (Option.get f))
        failed
  in
  List.iter (fun (name, d) -> Printf.printf "anchor %s %s\n" name d) anchors.Anchors.digests;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) problems;
  let walls = decision_times !workload m.timed in
  let n = List.length m.timed in
  let tail_pct = Common.tail_percentile n in
  let speedups = List.filter_map (fun (_, f, s) -> if f = None && s > 0. then Some s else None) checked in
  let end_to_end =
    [
      ("setup_s", "s", Common.median m.setup_s);
      ("decisions_per_s", "1/s", float_of_int n /. m.elapsed_s);
      ("decision_s.p50", "s", Common.median walls);
      ("decision_s.tail", "s", Common.percentile walls (float_of_int tail_pct /. 100.));
      ("fused_speedup.geomean", "x", Common.geomean speedups);
      ("peak_heap_mb", "MB", m.heap_mb);
    ]
  in
  let per_layer =
    m.layers
    @ [
        ("exec.oracle_s", "s", Check.oracle_s_per_pair ());
        ("decision_s.tail_pct", "percentile", float_of_int tail_pct);
        ("plans_changed", "count", float_of_int (Anchors.plans_changed anchors.Anchors.digests));
      ]
  in
  Printf.printf "workload %s seed %d: %d decisions in %.3f s, %d failed (failed_share %.4f)\n"
    !workload !seed n m.elapsed_s (List.length failed)
    (float_of_int (List.length failed) /. float_of_int (max 1 n));
  let kinds = List.sort_uniq compare (List.map (fun d -> d.Common.d_kind) m.timed) in
  List.iter
    (fun kind ->
      let walls = List.filter_map (fun d -> if d.Common.d_kind = kind then Some d.Common.d_wall_s else None) m.timed in
      Printf.printf "  kind %-28s %4d decisions, median %.4f s, %.1f s in all\n" kind
        (List.length walls) (Common.median walls) (List.fold_left ( +. ) 0. walls))
    kinds;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-32s %14.6g %s\n" name v unit)
    (end_to_end @ if traced then per_layer else []);
  let reported = if traced then per_layer else end_to_end in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (problems = []) (max 1 n) (List.length failed)
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          reported))
