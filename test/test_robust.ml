(* Fault-tolerance tests: structured errors, injection, guarded
   evaluation, checkpoint/resume determinism and budgeted degradation
   (Kf_robust + the safe pipeline entry points). *)

module Device = Kf_gpu.Device
module Plan = Kf_fusion.Plan
module Objective = Kf_search.Objective
module Hgga = Kf_search.Hgga
module Snapshot = Kf_search.Snapshot
module Error = Kf_robust.Error
module Guard = Kf_robust.Guard
module Inject = Kf_robust.Inject
module Pipeline = Kfuse.Pipeline
module Stats = Kf_util.Stats
module Motivating = Kf_workloads.Motivating
module Cloverleaf = Kf_workloads.Cloverleaf

let check = Alcotest.check
let device = Device.k20x

let fast_params =
  { Hgga.default_params with Hgga.max_generations = 40; stall_generations = 15 }

(* ------------------------------------------------------------------ *)
(* Error classification                                                *)

let test_classify () =
  let cl msg = Error.classify ~stage:Error.Search (Invalid_argument msg) in
  (match cl "Measure: kernel cannot launch (zero occupancy)" with
  | Error.Sim_divergence _ -> ()
  | e -> Alcotest.failf "expected Sim_divergence, got %s" (Error.to_string e));
  (match cl "Inputs: measured_runtime length 3 <> 5 kernels" with
  | Error.Model_input _ -> ()
  | e -> Alcotest.failf "expected Model_input, got %s" (Error.to_string e));
  (match cl "Plan: groups must cover every kernel" with
  | Error.Constraint_violation _ -> ()
  | e -> Alcotest.failf "expected Constraint_violation, got %s" (Error.to_string e));
  (match Error.classify ~stage:Error.Io (Snapshot.Malformed "bad json") with
  | Error.Io_error _ -> ()
  | e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e));
  (match Error.classify ~stage:Error.Io (Sys_error "no such file") with
  | Error.Io_error _ -> ()
  | e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e));
  (match Error.classify ~stage:Error.Apply (Failure "unexpected") with
  | Error.Internal { stage = Error.Apply; _ } -> ()
  | e -> Alcotest.failf "expected Internal, got %s" (Error.to_string e))

let test_classify_total () =
  (* classify never raises, whatever the exception. *)
  let exns =
    [ Not_found; Exit; Division_by_zero; Failure ""; Invalid_argument "";
      Inject.Injected_crash "x"; Inject.Injected_stall "y" ]
  in
  List.iter
    (fun e -> ignore (Error.to_string (Error.classify ~stage:Error.Prepare e)))
    exns

(* ------------------------------------------------------------------ *)
(* Satellite guards: safe_speedup and never-raising stats              *)

let test_safe_speedup () =
  check (Alcotest.float 1e-12) "normal ratio" 2.0
    (Pipeline.safe_speedup ~original:4.0 ~fused:2.0);
  check (Alcotest.float 0.) "zero fused" 0. (Pipeline.safe_speedup ~original:4.0 ~fused:0.);
  check (Alcotest.float 0.) "negative fused" 0.
    (Pipeline.safe_speedup ~original:4.0 ~fused:(-1.0));
  check (Alcotest.float 0.) "nan fused" 0.
    (Pipeline.safe_speedup ~original:4.0 ~fused:Float.nan);
  check (Alcotest.float 0.) "inf original" 0.
    (Pipeline.safe_speedup ~original:Float.infinity ~fused:2.0)

let test_stats_opt () =
  check Alcotest.bool "geomean_opt empty" true (Stats.geomean_opt [||] = None);
  check Alcotest.bool "geomean_opt non-positive" true (Stats.geomean_opt [| 1.0; 0.0 |] = None);
  check Alcotest.bool "geomean_opt nan" true (Stats.geomean_opt [| 1.0; Float.nan |] = None);
  (match Stats.geomean_opt [| 2.0; 8.0 |] with
  | Some g -> check (Alcotest.float 1e-12) "geomean_opt value" 4.0 g
  | None -> Alcotest.fail "geomean_opt: expected Some");
  check Alcotest.bool "percentile_opt empty" true (Stats.percentile_opt [||] 50. = None);
  check Alcotest.bool "percentile_opt bad p" true
    (Stats.percentile_opt [| 1.0 |] 101. = None);
  (match Stats.percentile_opt [| 1.0; 3.0 |] 50. with
  | Some v -> check (Alcotest.float 1e-12) "percentile_opt median" 2.0 v
  | None -> Alcotest.fail "percentile_opt: expected Some");
  check Alcotest.bool "min_max_opt empty" true (Stats.min_max_opt [||] = None)

(* ------------------------------------------------------------------ *)
(* Injection determinism and guard accounting                          *)

let test_inject_deterministic () =
  let run () =
    let faults = Objective.zero_faults () in
    let inj = Inject.create ~faults (Inject.config ~seed:7 0.5) in
    let guard = Inject.wrap inj in
    let outcomes =
      List.init 200 (fun i ->
          try
            let v =
              guard (fun _ -> { Objective.feasible = true; cost = 1.0; orig_sum = 2.0 }) [ i; i + 1 ]
            in
            Printf.sprintf "%h/%h" v.Objective.cost v.Objective.orig_sum
          with
          | Inject.Injected_crash _ -> "crash"
          | Inject.Injected_stall _ -> "stall")
    in
    (Inject.injected inj, outcomes)
  in
  let n1, o1 = run () and n2, o2 = run () in
  check Alcotest.int "same injection count" n1 n2;
  check Alcotest.bool "some injections happened" true (n1 > 0);
  check Alcotest.bool "not everything injected" true (n1 < 200);
  check (Alcotest.list Alcotest.string) "same fault sequence" o1 o2

let test_inject_singletons_exempt () =
  (* Singleton groups cost their measured runtime and are never perturbed,
     so the baseline (identity plan) stays trustworthy under injection. *)
  let faults = Objective.zero_faults () in
  let inj = Inject.create ~faults (Inject.config ~seed:1 1.0) in
  let guard = Inject.wrap inj in
  for k = 0 to 99 do
    let v = guard (fun _ -> { Objective.feasible = true; cost = 3.0; orig_sum = 3.0 }) [ k ] in
    check (Alcotest.float 0.) "singleton untouched" 3.0 v.Objective.cost
  done;
  check Alcotest.int "no injections on singletons" 0 (Inject.injected inj)

let test_guard_quarantines () =
  let faults = Objective.zero_faults () in
  let inj = Inject.create ~faults (Inject.config ~seed:3 ~modes:[ Inject.Crash ] 1.0) in
  let guard = Guard.guarded ~config:{ Guard.default with backoff_s = 0. } ~inject:inj faults in
  let v = guard (fun _ -> { Objective.feasible = true; cost = 1.0; orig_sum = 2.0 }) [ 0; 1 ] in
  check Alcotest.bool "quarantined verdict infeasible" false v.Objective.feasible;
  check Alcotest.bool "penalty cost finite" true (Float.is_finite v.Objective.cost);
  check (Alcotest.float 0.) "penalty cost" Guard.default.Guard.penalty_cost v.Objective.cost;
  check Alcotest.int "one injection" 1 faults.Objective.injected;
  check Alcotest.int "one trap" 1 faults.Objective.trapped;
  check Alcotest.int "one quarantine" 1 faults.Objective.quarantined

let test_guard_retries_transient () =
  (* A stall is transient: the retry re-runs the evaluation, which (rate
     drawn per call) may succeed.  With rate 1.0 every retry stalls again,
     so the candidate ends quarantined after max_retries attempts. *)
  let faults = Objective.zero_faults () in
  let inj = Inject.create ~faults (Inject.config ~seed:5 ~modes:[ Inject.Stall ] 1.0) in
  let guard = Guard.guarded ~config:{ Guard.default with backoff_s = 0. } ~inject:inj faults in
  let v = guard (fun _ -> { Objective.feasible = true; cost = 1.0; orig_sum = 2.0 }) [ 0; 1 ] in
  check Alcotest.bool "still quarantined" false v.Objective.feasible;
  check Alcotest.int "retried max times" Guard.default.Guard.max_retries faults.Objective.retries;
  check Alcotest.int "nothing recovered" 0 faults.Objective.recovered

let test_guard_sanitizes_corruption () =
  List.iter
    (fun mode ->
      let faults = Objective.zero_faults () in
      let inj = Inject.create ~faults (Inject.config ~seed:9 ~modes:[ mode ] 1.0) in
      let guard = Guard.guarded ~config:{ Guard.default with backoff_s = 0. } ~inject:inj faults in
      let v = guard (fun _ -> { Objective.feasible = true; cost = 1.0; orig_sum = 2.0 }) [ 0; 1 ] in
      check Alcotest.bool
        (Printf.sprintf "%s sanitized" (Inject.mode_name mode))
        true
        (Guard.sane v && not v.Objective.feasible);
      check Alcotest.int "counted as corrupted" 1 faults.Objective.corrupted)
    [ Inject.Nan_runtime; Inject.Negative_runtime; Inject.Corrupt_metadata ]

(* ------------------------------------------------------------------ *)
(* Retry backoff: deterministic, jittered, bounded                     *)

let test_backoff_delay () =
  let cfg = Guard.default in
  (* Pure function of (config, key, attempt): same inputs, same delay. *)
  let d = Guard.backoff_delay cfg ~key:"0,1" ~attempt:1 in
  check (Alcotest.float 0.) "deterministic" d (Guard.backoff_delay cfg ~key:"0,1" ~attempt:1);
  check Alcotest.bool "positive" true (d > 0.);
  (* Jitter spreads each delay over at most ±jitter/2 of its exponential
     base, so retry chains stay predictable under injection. *)
  for attempt = 0 to 6 do
    let base = cfg.Guard.backoff_s *. float_of_int (1 lsl attempt) in
    let lo = base *. (1. -. (cfg.Guard.jitter /. 2.)) -. 1e-15 in
    let hi = base *. (1. +. (cfg.Guard.jitter /. 2.)) +. 1e-15 in
    let d = Guard.backoff_delay cfg ~key:"k" ~attempt in
    check Alcotest.bool
      (Printf.sprintf "attempt %d within jitter band" attempt)
      true (d >= lo && d <= hi)
  done;
  (* The cap bites long chains: a deep attempt never exceeds it. *)
  check (Alcotest.float 0.) "capped at max_backoff_s" cfg.Guard.max_backoff_s
    (Guard.backoff_delay cfg ~key:"k" ~attempt:12);
  check (Alcotest.float 0.) "huge attempt still capped" cfg.Guard.max_backoff_s
    (Guard.backoff_delay cfg ~key:"k" ~attempt:1000);
  (* jitter = 0 degenerates to the exact exponential schedule. *)
  check (Alcotest.float 0.) "no jitter is exact"
    (cfg.Guard.backoff_s *. 4.)
    (Guard.backoff_delay { cfg with Guard.jitter = 0. } ~key:"k" ~attempt:2);
  (* backoff_s <= 0 disables sleeping entirely (the test-suite setting). *)
  check (Alcotest.float 0.) "disabled" 0.
    (Guard.backoff_delay { cfg with Guard.backoff_s = 0. } ~key:"k" ~attempt:3);
  (* Different keys and attempts draw different jitter, de-correlating
     concurrent retries. *)
  check Alcotest.bool "keys de-correlated" true
    (Guard.backoff_delay cfg ~key:"a" ~attempt:1
    <> Guard.backoff_delay cfg ~key:"b" ~attempt:1);
  check Alcotest.bool "seed matters" true
    (Guard.backoff_delay cfg ~key:"a" ~attempt:1
    <> Guard.backoff_delay { cfg with Guard.jitter_seed = 1 } ~key:"a" ~attempt:1)

let test_guard_retry_determinism_jitter () =
  (* With real (tiny) backoff sleeps and jitter enabled, two identical
     guarded runs must still agree bit-for-bit: jitter is drawn from
     (seed, key, attempt), never from wall clock or a shared RNG. *)
  let run () =
    let faults = Objective.zero_faults () in
    let inj =
      Inject.create ~faults
        (Inject.config ~seed:11 ~modes:[ Inject.Stall; Inject.Crash ] 0.4)
    in
    let config =
      { Guard.default with Guard.backoff_s = 1e-6; max_backoff_s = 1e-5; jitter = 0.8 }
    in
    let guard = Guard.guarded ~config ~inject:inj faults in
    let outcomes =
      List.init 60 (fun i ->
          let v =
            guard
              (fun _ ->
                { Objective.feasible = true;
                  cost = float_of_int (i + 1);
                  orig_sum = 2. *. float_of_int (i + 1);
                })
              [ i; i + 1 ]
          in
          Printf.sprintf "%b/%h" v.Objective.feasible v.Objective.cost)
    in
    (faults, outcomes)
  in
  let f1, o1 = run () and f2, o2 = run () in
  check (Alcotest.list Alcotest.string) "same verdict sequence" o1 o2;
  check Alcotest.int "same injected" f1.Objective.injected f2.Objective.injected;
  check Alcotest.int "same retries" f1.Objective.retries f2.Objective.retries;
  check Alcotest.int "same recovered" f1.Objective.recovered f2.Objective.recovered;
  check Alcotest.int "same quarantined" f1.Objective.quarantined f2.Objective.quarantined;
  check Alcotest.bool "retries actually happened" true (f1.Objective.retries > 0)

(* ------------------------------------------------------------------ *)
(* run_safe: never raises, plan always validate-clean, accounting holds *)

let outcome_clean (o : Pipeline.outcome) =
  let ctx = o.Pipeline.context in
  Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec
    o.Pipeline.search.Hgga.plan
  = []

let test_run_safe_under_injection () =
  let p = Motivating.program () in
  List.iter
    (fun mode ->
      List.iter
        (fun rate ->
          let inject = Inject.config ~seed:1337 ~modes:[ mode ] rate in
          let guard = { Guard.default with Guard.backoff_s = 0. } in
          match Pipeline.run_safe ~params:fast_params ~guard ~inject ~device p with
          | Ok o ->
              check Alcotest.bool
                (Printf.sprintf "%s@%.2f: plan validates" (Inject.mode_name mode) rate)
                true (outcome_clean o);
              let f = o.Pipeline.search.Hgga.stats.Hgga.faults in
              check Alcotest.int
                (Printf.sprintf "%s@%.2f: injected = trapped + corrupted"
                   (Inject.mode_name mode) rate)
                f.Objective.injected
                (f.Objective.trapped + f.Objective.corrupted)
          | Error e ->
              (* A classified error is an acceptable outcome; an escaped
                 exception is not (it would fail the test run itself). *)
              ignore (Error.to_string e))
        [ 0.01; 0.1; 0.25; 0.5 ])
    Inject.all_modes

let test_run_safe_all_modes_mixed () =
  (* All failure modes at once, at a high rate, on the larger workload:
     the acceptance scenario.  Must complete, validate, and account. *)
  let p = Cloverleaf.program () in
  let inject = Inject.config ~seed:1337 0.2 in
  let guard = { Guard.default with Guard.backoff_s = 0. } in
  match Pipeline.run_safe ~params:fast_params ~guard ~inject ~device p with
  | Ok o ->
      check Alcotest.bool "plan validates" true (outcome_clean o);
      let f = o.Pipeline.search.Hgga.stats.Hgga.faults in
      check Alcotest.bool "faults observed" true (f.Objective.injected > 0);
      check Alcotest.int "accounting exact" f.Objective.injected
        (f.Objective.trapped + f.Objective.corrupted);
      check Alcotest.bool "speedup finite" true (Float.is_finite o.Pipeline.speedup)
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let test_run_safe_clean_matches_run () =
  (* With no injection, the safe path finds the same plan as the raw
     pipeline: the guard layer is observationally transparent. *)
  let p = Motivating.program () in
  let raw = Pipeline.run ~params:fast_params ~device p in
  match Pipeline.run_safe ~params:fast_params ~device p with
  | Ok safe ->
      check Alcotest.bool "same plan" true
        (Plan.equal raw.Pipeline.search.Hgga.plan safe.Pipeline.search.Hgga.plan);
      let f = safe.Pipeline.search.Hgga.stats.Hgga.faults in
      check Alcotest.int "no faults recorded" 0
        (f.Objective.injected + f.Objective.trapped + f.Objective.corrupted
        + f.Objective.quarantined)
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let test_prepare_safe_bad_input () =
  (* An unmeasurable kernel (255 registers x 512 threads exceeds the
     register file, so zero blocks fit) must surface as a classified
     error, not an exception. *)
  let p = Motivating.program () in
  let broken =
    Kf_ir.Program.create ~name:"broken" ~grid:p.Kf_ir.Program.grid
      ~arrays:(Array.to_list p.Kf_ir.Program.arrays)
      ~kernels:
        (Array.to_list p.Kf_ir.Program.kernels
        |> List.map (fun k ->
               if k.Kf_ir.Kernel.id = 2 then
                 { k with Kf_ir.Kernel.registers_per_thread = 255 }
               else k))
  in
  match Pipeline.prepare_safe ~device broken with
  | Ok _ -> Alcotest.fail "expected prepare to fail on unlaunchable kernel"
  | Error (Error.Sim_divergence _) -> ()
  | Error e -> Alcotest.failf "expected Sim_divergence, got %s" (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Budgets and degradation                                             *)

let test_budget_evaluations () =
  let p = Cloverleaf.program () in
  let budget = { Hgga.unlimited with Hgga.max_evaluations = Some 30 } in
  match Pipeline.run_safe ~params:fast_params ~budget ~device p with
  | Ok o ->
      let s = o.Pipeline.search.Hgga.stats in
      check Alcotest.string "stopped on budget"
        (Hgga.stop_reason_name Hgga.Evaluation_budget)
        (Hgga.stop_reason_name s.Hgga.stop);
      check Alcotest.bool "plan still validates" true (outcome_clean o);
      (match Error.of_stop s ~threshold:1.0 with
      | Some (Error.Budget_exhausted _) -> ()
      | _ -> Alcotest.fail "of_stop: expected Budget_exhausted")
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let test_fault_overload_degrades () =
  (* Everything crashes: the fault-rate budget trips and the search
     degrades to a feasible plan (identity at worst) instead of raising. *)
  let p = Motivating.program () in
  let inject = Inject.config ~seed:2 ~modes:[ Inject.Crash ] 1.0 in
  let guard = { Guard.default with Guard.backoff_s = 0. } in
  (* Quarantined pairs are memoized, so a tiny program yields only a
     handful of distinct evaluations: keep the trust gate below that. *)
  let budget =
    { Hgga.unlimited with Hgga.max_fault_rate = Some 0.5; min_rate_evals = 2 }
  in
  match Pipeline.run_safe ~params:fast_params ~guard ~inject ~budget ~device p with
  | Ok o ->
      check Alcotest.string "stopped on overload"
        (Hgga.stop_reason_name Hgga.Fault_overload)
        (Hgga.stop_reason_name o.Pipeline.search.Hgga.stats.Hgga.stop);
      check Alcotest.bool "degraded plan validates" true (outcome_clean o);
      check Alcotest.bool "cost finite" true (Float.is_finite o.Pipeline.search.Hgga.cost)
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)

let solve_clover ?checkpoint ?resume_from ?budget params =
  let ctx = Pipeline.prepare ~device (Cloverleaf.program ()) in
  Hgga.solve ~params ?checkpoint ?resume_from ?budget (Pipeline.objective ctx)

let vpacks groups = List.map (fun g -> [ g ]) groups

let sample_snapshot () =
  {
      Snapshot.population_size = 3;
      seed = 42;
      n = 5;
      generation = 14;
      stall = 3;
      evaluations = 99;
      wall_time_s = 12.625;
      faults =
        {
          Objective.injected = 7;
          trapped = 3;
          corrupted = 2;
          retries = 5;
          recovered = 4;
          quarantined = 1;
        };
      migration_cursor = 4;
      group_cache = { Objective.hits = 120; misses = 40; evictions = 8; size = 0 };
      plan_cache = { Objective.hits = 30; misses = 12; evictions = 0; size = 0 };
      horizontal = false;
      best = vpacks [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ];
      history = [ (0, 0.25); (3, 0.125) ];
      islands =
        [
          {
            Snapshot.rng_state = -8313746488903152427L;
            population =
              [ vpacks [ [ 0; 1; 2; 3; 4 ] ]; vpacks [ [ 0 ]; [ 1; 2 ]; [ 3; 4 ] ] ];
          };
          {
            Snapshot.rng_state = 7459286063232097792L;
            population = [ vpacks [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] ];
          };
        ];
  }

let test_snapshot_roundtrip () =
  (* Two islands with distinct RNG states (one above 2^62, which no JSON
     int on the OCaml side holds) and uneven populations: the document
     must survive the render/parse round trip exactly, and be standard
     JSON for the shared codec. *)
  let snap = sample_snapshot () in
  let doc = Snapshot.render snap in
  ignore (Kf_obs.Json.of_string doc);
  let back = Snapshot.of_string doc in
  check Alcotest.bool "roundtrip identical" true (snap = back)

let test_snapshot_atomic_save () =
  (* Crash-safe save: writes go through a temp file and an atomic rename,
     so a reader never observes a partially written snapshot and a failed
     save never clobbers the previous good one. *)
  let dir = Filename.temp_file "kfuse_atomic" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then Unix.rmdir p else Sys.remove p)
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "snap.json" in
      let snap = sample_snapshot () in
      Snapshot.save path snap;
      check Alcotest.bool "no temp left behind" false (Sys.file_exists (path ^ ".tmp"));
      check Alcotest.bool "save/load roundtrip" true (Snapshot.load path = snap);
      (* Overwriting replaces the document wholesale. *)
      let snap2 = { snap with Snapshot.generation = snap.Snapshot.generation + 1 } in
      Snapshot.save path snap2;
      check Alcotest.bool "atomic replace" true (Snapshot.load path = snap2);
      (* A crash between temp write and rename leaves a stale .tmp around;
         the good document must be untouched by it. *)
      let out = open_out (path ^ ".tmp") in
      output_string out (String.sub (Snapshot.render snap) 0 40);
      close_out out;
      check Alcotest.bool "stale temp ignored" true (Snapshot.load path = snap2);
      Sys.remove (path ^ ".tmp");
      (* The pre-atomic failure mode — a truncated document at the final
         path — is rejected loudly, never half-parsed. *)
      (match Snapshot.of_string (String.sub (Snapshot.render snap) 0 40) with
      | exception Snapshot.Malformed _ -> ()
      | _ -> Alcotest.fail "truncated document parsed");
      (* A failing rename (target is a directory) raises and removes the
         temp instead of leaking it. *)
      let blocked = Filename.concat dir "blocked" in
      Unix.mkdir blocked 0o700;
      (match Snapshot.save blocked snap with
      | exception Sys_error _ -> ()
      | () -> Alcotest.fail "save onto a directory succeeded");
      check Alcotest.bool "temp cleaned after failed rename" false
        (Sys.file_exists (blocked ^ ".tmp")))

let expect_malformed ~contains doc =
  match Snapshot.of_string doc with
  | exception Snapshot.Malformed msg ->
      let l = String.length contains in
      let rec has i =
        i + l <= String.length msg && (String.sub msg i l = contains || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "message %S lacks %S" msg contains
  | _ -> Alcotest.failf "accepted %S" doc

let test_snapshot_old_formats_rejected () =
  (* One format is read: a format-2 document (flat population, no
     islands) and a format-7 one (the last before the shared codec) are
     both refused as unsupported rather than defaulted. *)
  expect_malformed ~contains:"unsupported checkpoint format 2"
    {|{"format": 2, "population_size": 3, "seed": 7, "n": 3, "generation": 5,
       "stall": 1, "evaluations": 40, "wall_time_s": "0x1.4p3",
       "faults": [1,0,0,0,0,0], "rng_state": "-42", "best": [[0,1],[2]],
       "history": [[0,"0x1p0"]], "population": [[[0],[1],[2]],[[0,1],[2]],[[0,1,2]]]}|};
  let v8 = Snapshot.render (sample_snapshot ()) and head = "{\n  \"format\": 8," in
  check Alcotest.bool "format leads the document" true (String.starts_with ~prefix:head v8);
  let rest = String.sub v8 (String.length head) (String.length v8 - String.length head) in
  expect_malformed ~contains:"unsupported checkpoint format 7" ("{\n  \"format\": 7," ^ rest)

(* Well-formed documents that are not a valid search state: each must be
   a corrupt checkpoint at load, not an index or assignment error deep
   inside the resumed search.  The sample has islands of sizes 2 and 1. *)
let with_islands f =
  let snap = sample_snapshot () in
  Snapshot.render { snap with Snapshot.islands = f snap.Snapshot.islands }

let test_snapshot_rejects_bad_kernel_id () =
  expect_malformed ~contains:"kernel id 999"
    (Snapshot.render
       { (sample_snapshot ()) with Snapshot.best = vpacks [ [ 0; 1 ]; [ 2 ]; [ 3; 999 ] ] })

let test_snapshot_rejects_missing_kernel () =
  expect_malformed ~contains:"kernel 1 unassigned"
    (with_islands (function
      | a :: rest ->
          let population = [ vpacks [ [ 0 ]; [ 2; 3; 4; 4 ] ]; vpacks [ [ 0; 1; 2; 3; 4 ] ] ] in
          { a with Snapshot.population } :: rest
      | [] -> []))

let test_snapshot_rejects_empty_island () =
  expect_malformed ~contains:"island 1 is empty"
    (with_islands (function
      | [ a; b ] ->
          [
            { a with Snapshot.population = a.Snapshot.population @ b.Snapshot.population };
            { b with Snapshot.population = [] };
          ]
      | l -> l));
  expect_malformed ~contains:"sum to 4" (with_islands (fun l -> l @ List.tl l))

let test_snapshot_malformed () =
  List.iter
    (fun s ->
      match Snapshot.of_string s with
      | exception Snapshot.Malformed _ -> ()
      | _ -> Alcotest.failf "expected Malformed on %S" s)
    [
      "";
      "{";
      "[1,2]";
      "{\"format\": 99}";
      "{\"format\": 8}";
      (* a serve-cache document is not a checkpoint *)
      "{\"format\": 8, \"kind\": \"serve-cache\", \"entries\": []}";
      (* no islands at all: structurally invalid *)
      String.concat ""
        [
          "{\"format\": 8, \"kind\": \"checkpoint\", \"population_size\": 0, \"seed\": 1, ";
          "\"n\": 1, \"generation\": 0, \"stall\": 0, \"evaluations\": 0, ";
          "\"wall_time_s\": \"0x0p+0\", \"faults\": [0,0,0,0,0,0], \"migration_cursor\": 0, ";
          "\"group_cache\": [0,0,0], \"plan_cache\": [0,0,0], \"horizontal\": false, ";
          "\"best\": [[[0]]], \"history\": [], \"islands\": []}";
        ];
    ]

let test_checkpoint_resume_identical () =
  (* Kill after 14 generations (last snapshot at gen 14), resume to the
     full horizon: bit-identical final plan and cost. *)
  let params =
    { Hgga.default_params with Hgga.max_generations = 30; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let full = solve_clover params in
      let killed =
        solve_clover
          ~checkpoint:{ Hgga.path; every = 7 }
          { params with Hgga.max_generations = 14 }
      in
      ignore killed;
      let resumed = solve_clover ~resume_from:path params in
      check Alcotest.bool "same final plan" true
        (Plan.equal full.Hgga.plan resumed.Hgga.plan);
      check (Alcotest.float 0.) "same final cost" full.Hgga.cost resumed.Hgga.cost;
      check Alcotest.int "same generation count" full.Hgga.stats.Hgga.generations
        resumed.Hgga.stats.Hgga.generations)

let test_resume_carries_cache_stats () =
  (* Snapshot v4 regression: the cache ledgers written at the checkpoint
     must seed the resumed objective, so reported hit/miss counters span
     the whole logical run rather than restarting from zero. *)
  let params =
    { Hgga.default_params with Hgga.max_generations = 30; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (solve_clover ~checkpoint:{ Hgga.path; every = 7 }
           { params with Hgga.max_generations = 14 });
      let snap = Snapshot.load path in
      let sg = snap.Snapshot.group_cache and sp = snap.Snapshot.plan_cache in
      check Alcotest.bool "snapshot recorded group-cache traffic" true
        (sg.Objective.hits + sg.Objective.misses > 0);
      check Alcotest.bool "snapshot recorded plan-cache traffic" true
        (sp.Objective.hits + sp.Objective.misses > 0);
      (* Seeding alone: a fresh objective carrying the snapshot's ledgers
         reports exactly them before any probe. *)
      let ctx = Pipeline.prepare ~device (Cloverleaf.program ()) in
      let obj = Pipeline.objective ctx in
      Objective.add_cache_stats obj ~group:sg ~plan:sp;
      let g0 = Objective.cache_stats obj in
      check Alcotest.int "seeded group hits" sg.Objective.hits g0.Objective.hits;
      check Alcotest.int "seeded group misses" sg.Objective.misses g0.Objective.misses;
      (* End to end: the resumed run's ledger is cumulative, never below
         what the snapshot already recorded. *)
      let resumed = solve_clover ~resume_from:path params in
      let g = resumed.Hgga.stats.Hgga.group_cache
      and p = resumed.Hgga.stats.Hgga.plan_cache in
      check Alcotest.bool "resumed group ledger cumulative" true
        (g.Objective.hits >= sg.Objective.hits && g.Objective.misses >= sg.Objective.misses);
      check Alcotest.bool "resumed plan ledger cumulative" true
        (p.Objective.hits >= sp.Objective.hits && p.Objective.misses >= sp.Objective.misses))

(* A resume of a checkpoint written at its final generation runs no
   generation: re-costing the saved population repeats probes the
   snapshot already counts, so checkpointing again must record the same
   cache counters, in both modes. *)
let test_resume_at_end_keeps_cache_stats () =
  let case label params program =
    let solve ?resume_from path =
      let ctx = Pipeline.prepare ~device (program ()) in
      Hgga.solve ~params ?resume_from ~checkpoint:{ Hgga.path; every = 7 }
        (Pipeline.objective ctx)
    in
    let first = Filename.temp_file "kfuse_ck" ".json" in
    let second = Filename.temp_file "kfuse_ck" ".json" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ first; second ])
      (fun () ->
        ignore (solve first);
        ignore (solve ~resume_from:first second);
        let a = Snapshot.load first and b = Snapshot.load second in
        let flow (c : Objective.cache_stats) = (c.Objective.hits, c.Objective.misses) in
        let pair = Alcotest.(pair int int) in
        check Alcotest.int (label ^ ": same generation") a.Snapshot.generation
          b.Snapshot.generation;
        check Alcotest.int (label ^ ": same evaluations") a.Snapshot.evaluations
          b.Snapshot.evaluations;
        check pair (label ^ ": group cache") (flow a.Snapshot.group_cache)
          (flow b.Snapshot.group_cache);
        check pair (label ^ ": plan cache") (flow a.Snapshot.plan_cache)
          (flow b.Snapshot.plan_cache))
  in
  let params = { Hgga.default_params with Hgga.max_generations = 30; stall_generations = 1000 } in
  case "vertical" params Cloverleaf.program;
  case "horizontal"
    { params with Hgga.horizontal = true }
    (fun () -> Kf_workloads.Video.generate Kf_workloads.Video.default)

let test_resume_rejects_mismatch () =
  let params =
    { Hgga.default_params with Hgga.max_generations = 7; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (solve_clover ~checkpoint:{ Hgga.path; every = 7 } params);
      (match solve_clover ~resume_from:path { params with Hgga.seed = 43 } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected seed mismatch rejection");
      let ctx = Pipeline.prepare ~device (Motivating.program ()) in
      match Hgga.solve ~params ~resume_from:path (Pipeline.objective ctx) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected program-size mismatch rejection")

let test_resume_under_injection () =
  (* Checkpointing composes with fault injection: the injector's draws are
     per-evaluation and memoized verdicts are recomputed identically, so a
     resumed faulty search still matches the uninterrupted one. *)
  let params =
    { Hgga.default_params with Hgga.max_generations = 24; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  let solve ?checkpoint ?resume_from params =
    let ctx = Pipeline.prepare ~device (Cloverleaf.program ()) in
    let faults = Objective.zero_faults () in
    let inj = Inject.create ~faults (Inject.config ~seed:11 0.15) in
    let guard =
      Guard.guarded ~config:{ Guard.default with Guard.backoff_s = 0. } ~inject:inj faults
    in
    Hgga.solve ~params ?checkpoint ?resume_from
      (Pipeline.objective ~guard ~faults ctx)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let full = solve params in
      ignore (solve ~checkpoint:{ Hgga.path; every = 6 } { params with Hgga.max_generations = 12 });
      let resumed = solve ~resume_from:path params in
      check Alcotest.bool "same plan under injection" true
        (Plan.equal full.Hgga.plan resumed.Hgga.plan))

(* ------------------------------------------------------------------ *)
(* Resume-budget accounting (regressions: budgets must span the whole
   logical run, not reset at each resume)                               *)

let test_final_checkpoint_always_written () =
  (* A checkpoint interval larger than the horizon used to mean no
     snapshot at all; now the loop's final unconditional save fires. *)
  let params =
    { Hgga.default_params with Hgga.max_generations = 8; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let killed = solve_clover ~checkpoint:{ Hgga.path; every = 1000 } params in
      check Alcotest.bool "final snapshot exists" true (Sys.file_exists path);
      let snap = Snapshot.load path in
      check Alcotest.int "snapshot is at the stop generation"
        killed.Hgga.stats.Hgga.generations snap.Snapshot.generation;
      check Alcotest.bool "snapshot carries the evaluation count" true
        (snap.Snapshot.evaluations > 0
        && snap.Snapshot.evaluations <= killed.Hgga.stats.Hgga.evaluations);
      check Alcotest.bool "snapshot carries wall time" true
        (snap.Snapshot.wall_time_s > 0.);
      (* Resuming at the same horizon is an immediate stop that reproduces
         the killed run's plan. *)
      let resumed = solve_clover ~resume_from:path params in
      check Alcotest.int "no further generations" killed.Hgga.stats.Hgga.generations
        resumed.Hgga.stats.Hgga.generations;
      check Alcotest.bool "same plan" true
        (Plan.equal killed.Hgga.plan resumed.Hgga.plan))

let test_resume_at_final_generation_counts_no_evaluations () =
  (* Resuming re-costs every checkpointed individual.  Those evaluations
     repeat work the snapshot already counts, so a resume at the final
     generation runs nothing new and must report the checkpoint's
     count, in both search modes. *)
  List.iter
    (fun horizontal ->
      let params =
        {
          Hgga.default_params with
          Hgga.max_generations = 8;
          stall_generations = 1000;
          horizontal;
        }
      in
      let path = Filename.temp_file "kfuse_ck" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let first = solve_clover ~checkpoint:{ Hgga.path; every = 3 } params in
          let snap = Snapshot.load path in
          let resumed = solve_clover ~resume_from:path params in
          let label what = Printf.sprintf "%s (horizontal %b)" what horizontal in
          check Alcotest.int (label "snapshot has the run's count")
            first.Hgga.stats.Hgga.evaluations snap.Snapshot.evaluations;
          check Alcotest.int (label "no further generations") first.Hgga.stats.Hgga.generations
            resumed.Hgga.stats.Hgga.generations;
          check Alcotest.int (label "resume reports the checkpoint's count")
            snap.Snapshot.evaluations resumed.Hgga.stats.Hgga.evaluations;
          check Alcotest.bool (label "same plan") true
            (Plan.equal first.Hgga.plan resumed.Hgga.plan)))
    [ false; true ]

let test_resume_honors_evaluation_budget () =
  (* Regression: the resumed solver ignored snap.evaluations, so a
     --budget-evals already spent before the kill bought a whole fresh
     budget after it.  Resuming with a budget at or below the snapshot's
     count must stop before running a single new generation. *)
  let params =
    { Hgga.default_params with Hgga.max_generations = 10; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (solve_clover ~checkpoint:{ Hgga.path; every = 5 } params);
      let snap = Snapshot.load path in
      check Alcotest.bool "snapshot spent evaluations" true (snap.Snapshot.evaluations > 0);
      let budget =
        { Hgga.unlimited with Hgga.max_evaluations = Some snap.Snapshot.evaluations }
      in
      let resumed =
        solve_clover ~resume_from:path
          ~budget { params with Hgga.max_generations = 50 }
      in
      check Alcotest.string "stops on the evaluation budget"
        (Hgga.stop_reason_name Hgga.Evaluation_budget)
        (Hgga.stop_reason_name resumed.Hgga.stats.Hgga.stop);
      check Alcotest.int "zero post-resume generations" snap.Snapshot.generation
        resumed.Hgga.stats.Hgga.generations;
      check Alcotest.bool "stats count the whole logical run" true
        (resumed.Hgga.stats.Hgga.evaluations >= snap.Snapshot.evaluations))

let test_resume_honors_wall_budget () =
  (* Regression: wall time restarted from zero at resume.  A snapshot
     claiming an already-exhausted wall budget must stop immediately and
     surface the cumulative time in the final stats. *)
  let params =
    { Hgga.default_params with Hgga.max_generations = 10; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (solve_clover ~checkpoint:{ Hgga.path; every = 5 } params);
      let snap = Snapshot.load path in
      Snapshot.save path { snap with Snapshot.wall_time_s = 7200. };
      let budget = { Hgga.unlimited with Hgga.max_wall_s = Some 3600. } in
      let resumed =
        solve_clover ~resume_from:path ~budget { params with Hgga.max_generations = 50 }
      in
      check Alcotest.string "stops on the wall budget"
        (Hgga.stop_reason_name Hgga.Wall_budget)
        (Hgga.stop_reason_name resumed.Hgga.stats.Hgga.stop);
      check Alcotest.int "zero post-resume generations" snap.Snapshot.generation
        resumed.Hgga.stats.Hgga.generations;
      check Alcotest.bool "wall time is cumulative" true
        (resumed.Hgga.stats.Hgga.wall_time_s >= 7200.))

let test_resume_carries_faults () =
  (* The fault record must survive the kill/resume boundary the same way
     evaluations do. *)
  let params =
    { Hgga.default_params with Hgga.max_generations = 10; stall_generations = 1000 }
  in
  let path = Filename.temp_file "kfuse_ck" ".json" in
  let solve ?checkpoint ?resume_from params =
    let ctx = Pipeline.prepare ~device (Cloverleaf.program ()) in
    let faults = Objective.zero_faults () in
    let inj = Inject.create ~faults (Inject.config ~seed:11 0.15) in
    let guard =
      Guard.guarded ~config:{ Guard.default with Guard.backoff_s = 0. } ~inject:inj faults
    in
    Hgga.solve ~params ?checkpoint ?resume_from (Pipeline.objective ~guard ~faults ctx)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (solve ~checkpoint:{ Hgga.path; every = 5 } params);
      let snap = Snapshot.load path in
      check Alcotest.bool "snapshot recorded injected faults" true
        (snap.Snapshot.faults.Objective.injected > 0);
      let resumed = solve ~resume_from:path { params with Hgga.max_generations = 12 } in
      check Alcotest.bool "resumed stats include pre-kill faults" true
        (resumed.Hgga.stats.Hgga.faults.Objective.injected
         >= snap.Snapshot.faults.Objective.injected))

(* ------------------------------------------------------------------ *)
(* Parser totality                                                     *)

(* Every parser of bytes from outside the process answers any input with
   a value or its own module's exception: truncated and byte-mutated
   copies of five real documents must never escape as anything else. *)
let fuzz_inputs =
  lazy
    (let module Protocol = Kf_serve.Protocol in
     let module Program_io = Kf_ir.Program_io in
     let horizontal =
       {
         (sample_snapshot ()) with
         Snapshot.horizontal = true;
         best = [ [ [ 0; 1 ]; [ 2 ] ]; [ [ 3; 4 ] ] ];
       }
     in
     let cache =
       [
         {
           Snapshot.Cache.key = "0123abcd";
           verdicts =
             [
               ([| 0; 1 |], { Objective.feasible = true; cost = 0.125; orig_sum = 0.5 });
               ([| 2; 3 |], { Objective.feasible = false; cost = infinity; orig_sum = 0.75 });
             ];
           plan =
             Some
               { Snapshot.Cache.groups = [ [ 0; 1 ]; [ 2; 3 ] ]; cost = 0.25; fingerprint = "fp|1" };
         };
       ]
     in
     let request =
       Kf_obs.Json.to_string
         (Kf_serve.Client.request ~id:"r" ~program:(Program_io.print (Motivating.program ()))
            ~options:[ ("generations", Kf_obs.Json.Int 5) ]
            ())
     in
     let accept f s = try ignore (f s) with Snapshot.Malformed _ -> () in
     [
       ("vertical checkpoint", Snapshot.render (sample_snapshot ()), accept Snapshot.of_string);
       ("horizontal checkpoint", Snapshot.render horizontal, accept Snapshot.of_string);
       ("cache document", Snapshot.Cache.render cache, accept Snapshot.Cache.of_string);
       ( "request line",
         request,
         fun s ->
           try ignore (Protocol.resolve (Protocol.parse_request s))
           with Protocol.Bad_request _ -> () );
       ( ".kf text",
         Program_io.print (Cloverleaf.program ()),
         fun s -> try ignore (Program_io.parse s) with Program_io.Parse_error _ -> () );
     ])

let test_parsers_total_under_truncation () =
  List.iter
    (fun (name, text, parse) ->
      for len = 0 to String.length text - 1 do
        match parse (String.sub text 0 len) with
        | () -> ()
        | exception e ->
            Alcotest.failf "%s truncated to %d bytes raised %s" name len (Printexc.to_string e)
      done)
    (Lazy.force fuzz_inputs)

(* A mutation overwrites one byte with a copy of another byte of the same
   document: uniformly random bytes mostly break the lexer, while copies
   keep the text plausible enough to reach the semantic checks. *)
let prop_parsers_total_under_mutation =
  let gen = QCheck.Gen.(pair (int_bound 4) (list_size (int_range 1 3) (pair nat nat))) in
  let mutate text muts =
    let b = Bytes.of_string text and len = String.length text in
    List.iter (fun (p, q) -> Bytes.set b (p mod len) text.[q mod len]) muts;
    Bytes.to_string b
  in
  let print (i, muts) =
    let name, text, _ = List.nth (Lazy.force fuzz_inputs) i in
    Printf.sprintf "%s mutated to %S" name (mutate text muts)
  in
  QCheck.Test.make ~count:3000 ~name:"parsers total under 1-3 byte mutations"
    (QCheck.make ~print gen)
    (fun (i, muts) ->
      let _, text, parse = List.nth (Lazy.force fuzz_inputs) i in
      parse (mutate text muts);
      true)

let suite =
  [
    Alcotest.test_case "error classification" `Quick test_classify;
    Alcotest.test_case "classify is total" `Quick test_classify_total;
    Alcotest.test_case "safe speedup" `Quick test_safe_speedup;
    Alcotest.test_case "never-raising stats" `Quick test_stats_opt;
    Alcotest.test_case "injection deterministic" `Quick test_inject_deterministic;
    Alcotest.test_case "singletons exempt" `Quick test_inject_singletons_exempt;
    Alcotest.test_case "guard quarantines" `Quick test_guard_quarantines;
    Alcotest.test_case "guard retries transient" `Quick test_guard_retries_transient;
    Alcotest.test_case "guard sanitizes corruption" `Quick test_guard_sanitizes_corruption;
    Alcotest.test_case "backoff delay" `Quick test_backoff_delay;
    Alcotest.test_case "retry determinism with jitter" `Quick
      test_guard_retry_determinism_jitter;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot atomic save" `Quick test_snapshot_atomic_save;
    Alcotest.test_case "snapshot old formats rejected" `Quick test_snapshot_old_formats_rejected;
    Alcotest.test_case "snapshot rejects bad kernel id" `Quick
      test_snapshot_rejects_bad_kernel_id;
    Alcotest.test_case "snapshot rejects missing kernel" `Quick
      test_snapshot_rejects_missing_kernel;
    Alcotest.test_case "snapshot rejects empty island" `Quick
      test_snapshot_rejects_empty_island;
    Alcotest.test_case "snapshot malformed" `Quick test_snapshot_malformed;
    Alcotest.test_case "parsers total under truncation" `Quick
      test_parsers_total_under_truncation;
    QCheck_alcotest.to_alcotest prop_parsers_total_under_mutation;
    Alcotest.test_case "prepare_safe bad input" `Quick test_prepare_safe_bad_input;
    Alcotest.test_case "run_safe under injection" `Slow test_run_safe_under_injection;
    Alcotest.test_case "run_safe acceptance" `Slow test_run_safe_all_modes_mixed;
    Alcotest.test_case "run_safe clean = run" `Slow test_run_safe_clean_matches_run;
    Alcotest.test_case "budget: evaluations" `Slow test_budget_evaluations;
    Alcotest.test_case "fault overload degrades" `Slow test_fault_overload_degrades;
    Alcotest.test_case "checkpoint/resume identical" `Slow test_checkpoint_resume_identical;
    Alcotest.test_case "resume rejects mismatch" `Slow test_resume_rejects_mismatch;
    Alcotest.test_case "resume under injection" `Slow test_resume_under_injection;
    Alcotest.test_case "final checkpoint always written" `Slow
      test_final_checkpoint_always_written;
    Alcotest.test_case "resume at final generation counts no evaluations" `Quick
      test_resume_at_final_generation_counts_no_evaluations;
    Alcotest.test_case "resume honors evaluation budget" `Slow
      test_resume_honors_evaluation_budget;
    Alcotest.test_case "resume honors wall budget" `Slow test_resume_honors_wall_budget;
    Alcotest.test_case "resume carries faults" `Slow test_resume_carries_faults;
    Alcotest.test_case "resume carries cache stats" `Slow test_resume_carries_cache_stats;
    Alcotest.test_case "resume at the final generation keeps cache stats" `Quick
      test_resume_at_end_keeps_cache_stats;
  ]
