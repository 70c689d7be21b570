(* Observability layer: JSON codec, metrics registry, trace sink, and the
   instrumentation contract (disabled mode is a no-op; enabled mode emits
   one well-formed record per generation). *)

open Alcotest

module Json = Kf_obs.Json
module Metrics = Kf_obs.Metrics
module Trace = Kf_obs.Trace
module Hgga = Kf_search.Hgga
module Objective = Kf_search.Objective
module Pipeline = Kfuse.Pipeline
module Cloverleaf = Kf_workloads.Cloverleaf
module Motivating = Kf_workloads.Motivating

let device = Kf_gpu.Device.k20x

(* Every test leaves the process-global switches as it found them
   (disabled): a leaked sink would silently instrument the rest of the
   suite. *)
let with_clean_obs f =
  Fun.protect
    ~finally:(fun () ->
      Trace.shutdown ();
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let temp_path suffix =
  let path = Filename.temp_file "kfuse_obs" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_file path = String.concat "\n" (read_lines path)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te\x01f");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("nan", Json.Float Float.nan);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("a", Json.Arr [ Json.Int 1; Json.Float 0.25; Json.Str "x" ]);
        ("o", Json.Obj [ ("nested", Json.Bool false) ]);
      ]
  in
  let back = Json.of_string (Json.to_string doc) in
  check string "string escapes survive" "a\"b\\c\nd\te\x01f"
    (Option.get (Json.to_string_opt (Option.get (Json.member "s" back))));
  check (option int) "int" (Some (-42)) (Json.to_int_opt (Option.get (Json.member "i" back)));
  check (option (float 0.)) "float" (Some 1.5)
    (Json.to_float_opt (Option.get (Json.member "f" back)));
  (* Non-finite floats are not representable in JSON; they render null. *)
  check bool "nan rendered as null" true (Json.member "nan" back = Some Json.Null);
  check bool "nested array" true
    (match Json.member "a" back with
    | Some (Json.Arr [ Json.Int 1; x; Json.Str "x" ]) -> Json.to_float_opt x = Some 0.25
    | _ -> false)

let test_json_malformed () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Malformed _ -> ()
      | v -> failf "expected Malformed on %S, got %s" s (Json.to_string v))
    [
      "";
      "{";
      "[1,";
      "{\"a\":}";
      "tru";
      "\"unterminated";
      "1 2";
      "{\"a\" 1}";
      (* nesting is bounded, so a line of brackets cannot exhaust the stack *)
      String.make 1_000_000 '[';
      String.make 65 '[' ^ String.make 65 ']';
    ];
  (* ... while the bound leaves room for any real document *)
  let deep = String.make 64 '[' ^ String.make 64 ']' in
  check bool "64 levels parse" true (Json.to_string (Json.of_string deep) = deep)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_disabled_noop () =
  with_clean_obs @@ fun () ->
  Metrics.set_enabled false;
  let c = Metrics.counter "test.disabled" in
  Metrics.incr c;
  Metrics.add c 100;
  check int "disabled incr is a no-op" 0 (Metrics.value c);
  check bool "trace disabled by default" false (Trace.enabled ());
  (* span still runs its body and returns the value *)
  check int "span transparent when disabled" 7 (Trace.span "noop" (fun () -> 7));
  Trace.instant "noop"

let test_counter_atomic_across_domains () =
  with_clean_obs @@ fun () ->
  Metrics.set_enabled true;
  let c = Metrics.counter "test.parallel" in
  let per_domain = 25_000 and domains = 4 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            (* Same named cell from every domain: find-or-create must hand
               back the one registered cell. *)
            let c = Metrics.counter "test.parallel" in
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join workers;
  check int "no lost updates" (domains * per_domain) (Metrics.value c);
  check (option int) "find by name" (Some (domains * per_domain)) (Metrics.find "test.parallel")

let test_metrics_write_file () =
  with_clean_obs @@ fun () ->
  Metrics.set_enabled true;
  Metrics.add (Metrics.counter "test.out") 5;
  Metrics.set (Metrics.gauge "test.gauge") 2.5;
  let path = temp_path ".json" in
  Metrics.write_file path;
  let doc = Json.of_string (read_file path) in
  let counters = Option.get (Json.member "counters" doc) in
  check (option int) "counter dumped" (Some 5)
    (Option.bind (Json.member "test.out" counters) Json.to_int_opt);
  let gauges = Option.get (Json.member "gauges" doc) in
  check (option (float 0.)) "gauge dumped" (Some 2.5)
    (Option.bind (Json.member "test.gauge" gauges) Json.to_float_opt)

(* ------------------------------------------------------------------ *)
(* Trace sink                                                          *)

let events_of_jsonl path =
  List.map Json.of_string (List.filter (fun l -> String.trim l <> "") (read_lines path))

let field name ev = Option.get (Json.member name ev)

let test_span_nesting () =
  with_clean_obs @@ fun () ->
  let path = temp_path ".jsonl" in
  Trace.configure path;
  check bool "enabled after configure" true (Trace.enabled ());
  let v =
    Trace.span "outer" (fun () ->
        Trace.span "inner" (fun () -> Unix.sleepf 0.002) |> fun () ->
        Unix.sleepf 0.002;
        41 + 1)
  in
  check int "span returns body value" 42 v;
  Trace.shutdown ();
  let events = events_of_jsonl path in
  let find name =
    List.find (fun e -> Json.to_string_opt (field "name" e) = Some name) events
  in
  let ts e = Option.get (Json.to_float_opt (field "ts" e)) in
  let dur e = Option.get (Json.to_float_opt (field "dur" e)) in
  let outer = find "outer" and inner = find "inner" in
  (* Inner completes (and is written) first but must fall inside the
     outer [ts, ts+dur] window; 1us slack for clock clamping. *)
  check bool "inner starts after outer" true (ts inner >= ts outer -. 1.);
  check bool "inner ends before outer" true
    (ts inner +. dur inner <= ts outer +. dur outer +. 1.);
  check bool "outer spans both sleeps" true (dur outer >= 3000.)

let test_span_error_propagates () =
  with_clean_obs @@ fun () ->
  let path = temp_path ".jsonl" in
  Trace.configure path;
  (match Trace.span "boom" (fun () -> failwith "kaput") with
  | exception Failure msg -> check string "exception rethrown" "kaput" msg
  | _ -> fail "expected Failure");
  Trace.shutdown ();
  let events = events_of_jsonl path in
  let boom = List.find (fun e -> Json.to_string_opt (field "name" e) = Some "boom") events in
  check bool "error recorded in args" true
    (Json.member "error" (field "args" boom) <> None)

let test_chrome_format_valid () =
  with_clean_obs @@ fun () ->
  let path = temp_path ".chrome" in
  Trace.configure ~format:Trace.Chrome path;
  Trace.span "alpha" (fun () -> ());
  Trace.instant ~args:[ ("k", Json.Int 1) ] "beta";
  Trace.span "gamma" (fun () -> ());
  Trace.shutdown ();
  (* The whole file must be a single valid JSON document even though it
     was streamed event by event. *)
  let doc = Json.of_string (read_file path) in
  match Json.member "traceEvents" doc with
  | Some (Json.Arr events) ->
      check int "all three events present" 3 (List.length events);
      List.iter
        (fun e ->
          check bool "has name/ph/ts/tid" true
            (Json.member "name" e <> None && Json.member "ph" e <> None
            && Json.member "ts" e <> None && Json.member "tid" e <> None))
        events;
      let phs = List.filter_map (fun e -> Json.to_string_opt (field "ph" e)) events in
      check (list string) "complete spans and instants" [ "X"; "i"; "X" ] phs
  | _ -> fail "missing traceEvents array"

let test_reconfigure_replaces_sink () =
  with_clean_obs @@ fun () ->
  let a = temp_path ".jsonl" and b = temp_path ".jsonl" in
  Trace.configure a;
  Trace.instant "first";
  Trace.configure b;
  Trace.instant "second";
  Trace.shutdown ();
  let names path =
    List.filter_map (fun e -> Json.to_string_opt (field "name" e)) (events_of_jsonl path)
  in
  check (list string) "first sink got first event" [ "first" ] (names a);
  check (list string) "second sink got second event" [ "second" ] (names b)

(* ------------------------------------------------------------------ *)
(* End-to-end: the search emits one record per generation               *)

let test_generation_events () =
  with_clean_obs @@ fun () ->
  let path = temp_path ".jsonl" in
  Trace.configure path;
  Metrics.set_enabled true;
  let ctx = Pipeline.prepare ~device (Cloverleaf.program ()) in
  let obj = Pipeline.objective ctx in
  let r =
    Hgga.solve
      ~params:{ Hgga.default_params with Hgga.max_generations = 9; stall_generations = 1000 }
      obj
  in
  Trace.shutdown ();
  let events = events_of_jsonl path in
  let by_name name =
    List.filter (fun e -> Json.to_string_opt (field "name" e) = Some name) events
  in
  let gens = by_name "generation" in
  check int "one event per generation" r.Hgga.stats.Hgga.generations (List.length gens);
  (* Each record is self-contained: the key per-generation quantities are
     all present and of the right type. *)
  List.iteri
    (fun i ev ->
      let args = field "args" ev in
      check (option int) "generation number" (Some (i + 1))
        (Option.bind (Json.member "generation" args) Json.to_int_opt);
      let num k = Option.bind (Json.member k args) Json.to_float_opt in
      check bool "best_cost finite" true
        (match num "best_cost" with Some c -> Float.is_finite c && c > 0. | None -> false);
      let div = Option.get (num "diversity") in
      check bool "diversity in (0,1]" true (div > 0. && div <= 1.);
      check bool "evaluations monotone counter" true
        (match Option.bind (Json.member "evaluations" args) Json.to_int_opt with
        | Some e -> e > 0
        | None -> false))
    gens;
  check int "exactly one stop event" 1 (List.length (by_name "stop"));
  let search_evals =
    match Kf_obs.Metrics.find "objective.evaluations" with Some n -> n | None -> 0
  in
  check bool "metrics saw the evaluations" true (search_evals >= r.Hgga.stats.Hgga.evaluations)

(* ------------------------------------------------------------------ *)
(* Objective cache telemetry                                            *)

let test_cache_stats_and_eviction () =
  with_clean_obs @@ fun () ->
  let ctx = Pipeline.prepare ~device (Motivating.program ()) in
  let obj = Objective.create ctx.Pipeline.inputs in
  ignore (Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 5 } obj);
  let cs = Objective.cache_stats obj in
  check bool "hits counted" true (cs.Objective.hits > 0);
  check bool "misses counted" true (cs.Objective.misses > 0);
  check bool "entries cached" true (cs.Objective.size > 0);
  (* the tables are unbounded: the stored eviction count stays 0 *)
  check int "no evictions" 0 cs.Objective.evictions;
  let rate = Objective.cache_hit_rate obj in
  check bool "hit rate in [0,1]" true (rate >= 0. && rate <= 1.)

let suite =
  [
    test_case "json roundtrip" `Quick test_json_roundtrip;
    test_case "json malformed" `Quick test_json_malformed;
    test_case "metrics disabled no-op" `Quick test_metrics_disabled_noop;
    test_case "counter atomic across domains" `Quick test_counter_atomic_across_domains;
    test_case "metrics write file" `Quick test_metrics_write_file;
    test_case "span nesting" `Quick test_span_nesting;
    test_case "span error propagates" `Quick test_span_error_propagates;
    test_case "chrome format valid" `Quick test_chrome_format_valid;
    test_case "reconfigure replaces sink" `Quick test_reconfigure_replaces_sink;
    test_case "one event per generation" `Quick test_generation_events;
    test_case "cache stats and eviction" `Quick test_cache_stats_and_eviction;
  ]
