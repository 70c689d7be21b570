(* Unit and property tests for Kf_util: RNG, statistics, bitsets, tables. *)

module Rng = Kf_util.Rng
module Stats = Kf_util.Stats
module Bitset = Kf_util.Bitset
module Table = Kf_util.Table

let check = Alcotest.check
let checkf = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_rng_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int t 17 in
    check Alcotest.bool "int in bound" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in t 5 9 in
    check Alcotest.bool "int_in inclusive" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 100 do
    let v = Rng.float t 2.5 in
    check Alcotest.bool "float in bound" true (v >= 0. && v < 2.5)
  done

let test_rng_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in t 3 2));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose t [||]))

let test_rng_split_independent () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  (* The child must not replay the parent's continuation. *)
  let p = List.init 20 (fun _ -> Rng.int64 parent) in
  let c = List.init 20 (fun _ -> Rng.int64 child) in
  check Alcotest.bool "streams differ" true (p <> c)

let test_rng_split_n_matches_sequential () =
  (* The batched draw is the parallel fan-out's determinism anchor: it
     must be bit-compatible with n sequential splits from an identical
     generator. *)
  let a = Rng.create 7 and b = Rng.create 7 in
  let seq = Array.init 5 (fun _ -> Rng.split a) in
  let batch = Rng.split_n b 5 in
  Array.iteri
    (fun i r ->
      for _ = 1 to 10 do
        check Alcotest.int (Printf.sprintf "stream %d" i) (Rng.int r 1000)
          (Rng.int batch.(i) 1000)
      done)
    seq;
  (* And the parents must be left in the same state. *)
  check Alcotest.bool "parents advanced identically" true
    (List.init 5 (fun _ -> Rng.int64 a) = List.init 5 (fun _ -> Rng.int64 b));
  check Alcotest.int "empty split" 0 (Array.length (Rng.split_n b 0));
  Alcotest.check_raises "negative" (Invalid_argument "Rng.split_n: n must be non-negative")
    (fun () -> ignore (Rng.split_n b (-1)))

let test_rng_copy_replays () =
  let t = Rng.create 5 in
  ignore (Rng.int64 t);
  let snapshot = Rng.copy t in
  let a = List.init 10 (fun _ -> Rng.int64 t) in
  let b = List.init 10 (fun _ -> Rng.int64 snapshot) in
  check Alcotest.bool "copy replays" true (a = b)

(* The streams are part of every recorded plan and checkpoint: the first
   outputs of each draw for two seeds are pinned (recorded before the
   generator state was unboxed), the state round-trips, and a bounded
   int or a coin flip allocates nothing. *)
let test_rng_streams_pinned () =
  let pinned =
    [
      ( 1,
        [ 492; 673; 881; 251; 878; 897; 286; 323 ],
        [ 0x3fd426a103512fbaL; 0x3fec3b3a4a6a1831L; 0x3fe07b605b433230L; 0x3fe1135e85e5ca90L ],
        [ false; true; true; false; true; false; false; false ],
        [ 304936; 607529; 463921 ],
        [ 7; 2; 0; 4 ],
        462723616604560412L );
      ( 20140101,
        [ 666; 364; 723; 113; 265; 15; 37; 561 ],
        [ 0x3fe9f0d9d95de9eaL; 0x3fdc6e981f8270c4L; 0x3fc8d41c1ed936f0L; 0x3fcc37e7bb27f190L ],
        [ false; false; false; false; false; false; true; false ],
        [ 179585; 969972; 845297 ],
        [ 3; 0; 4; 1 ],
        4390294856356963062L );
    ]
  in
  List.iter
    (fun (seed, ints, floats, chances, kids, sample, state) ->
      let r = Rng.create seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      check Alcotest.(list int) (name "int") ints (List.init 8 (fun _ -> Rng.int r 1000));
      check Alcotest.(list int64) (name "float bits") floats
        (List.init 4 (fun _ -> Int64.bits_of_float (Rng.float r 1.0)));
      check Alcotest.(list bool) (name "chance") chances
        (List.init 8 (fun _ -> Rng.chance r 0.3));
      check Alcotest.(list int) (name "split_n") kids
        (Array.to_list (Array.map (fun k -> Rng.int k 1_000_000) (Rng.split_n r 3)));
      check Alcotest.(list int) (name "sample") sample
        (Array.to_list (Rng.sample r 4 (Array.init 10 Fun.id)));
      check Alcotest.int64 (name "state") state (Rng.state r);
      let resumed = Rng.of_state (Rng.state r) in
      check Alcotest.int64 (name "of_state round trip") (Rng.int64 r) (Rng.int64 resumed))
    pinned;
  let r = Rng.create 3 in
  let words_per_call f =
    let calls = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f r))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  check (Alcotest.float 0.) "words per Rng.int" 0. (words_per_call (fun r -> Rng.int r 1000));
  check (Alcotest.float 0.) "words per Rng.chance" 0.
    (words_per_call (fun r -> Rng.chance r 0.3))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~count:200 ~name:"shuffle is a permutation"
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let arr = Array.of_list l in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let prop_sample_distinct =
  QCheck.Test.make ~count:200 ~name:"sample draws distinct positions"
    QCheck.(pair small_int (int_bound 20))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let arr = Array.init (n + 1) (fun i -> i) in
      let k = 1 + Rng.int rng (n + 1) in
      let s = Rng.sample rng k arr in
      Array.length s = k && List.length (List.sort_uniq compare (Array.to_list s)) = k)

let test_rng_uniformity () =
  (* Chi-square goodness of fit for Rng.int: with the rejection limit
     derived from the number of possible draws (2^62), every residue is
     exactly equally likely, so the statistic follows chi^2 with
     (bound - 1) degrees of freedom.  40 is far beyond the 99.9th
     percentile for df <= 15: a pass means "not grossly biased", which is
     what a fixed-seed sanity check can honestly claim. *)
  List.iter
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let draws = 10_000 in
      let counts = Array.make bound 0 in
      for _ = 1 to draws do
        let v = Rng.int rng bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int draws /. float_of_int bound in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. (d *. d /. expected))
          0. counts
      in
      if chi2 > 40. then
        Alcotest.failf "Rng.int %d (seed %d): chi^2 = %.2f suggests bias" bound seed chi2)
    (* Both a power of two (rejection-free path) and odd bounds (the
       rejection path the limit computation governs). *)
    [ (1, 16); (2, 10); (3, 7); (4, 13) ]

let test_gaussian_moments () =
  let rng = Rng.create 42 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mean:3.0 ~stddev:2.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  check Alcotest.bool "mean near 3" true (Float.abs (m -. 3.0) < 0.1);
  check Alcotest.bool "stddev near 2" true (Float.abs (sd -. 2.0) < 0.1)

(* --- Stats --- *)

let test_stats_basics () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  checkf "mean" 2.5 (Stats.mean xs);
  checkf "median" 2.5 (Stats.median xs);
  checkf "sum" 10. (Stats.sum xs);
  (* Bessel-corrected sample variance: sum of squared deviations 5 over
     n - 1 = 3, not the population 1.25. *)
  checkf "variance" (5. /. 3.) (Stats.variance xs);
  let lo, hi = Stats.min_max xs in
  checkf "min" 1. lo;
  checkf "max" 4. hi

let test_stats_variance_bessel () =
  (* n < 2 has no sample variance: defined as 0, not a division by 0. *)
  checkf "singleton variance" 0. (Stats.variance [| 42. |]);
  checkf "empty variance" 0. (Stats.variance [||]);
  (* Constant samples have zero variance under either divisor. *)
  checkf "constant variance" 0. (Stats.variance [| 2.; 2.; 2. |]);
  (* Two samples: squared half-range under n, full (d/sqrt 2)^2 under
     n - 1 — the clearest discriminator between the two conventions. *)
  checkf "two-sample variance" 2. (Stats.variance [| 1.; 3. |]);
  checkf "two-sample stddev" (sqrt 2.) (Stats.stddev [| 1.; 3. |])

let test_stats_cv () =
  let xs = [| 1.; 3. |] in
  let cv = Stats.coefficient_of_variation xs in
  checkf "cv positive mean" (sqrt 2. /. 2.) cv;
  (* Negating the sample flips the mean's sign but not its dispersion:
     CV must use |mean| and stay equal (and non-negative). *)
  let neg = Array.map (fun x -> -.x) xs in
  checkf "cv negative mean" cv (Stats.coefficient_of_variation neg);
  checkf "cv zero mean" 0. (Stats.coefficient_of_variation [| -1.; 1. |])

let test_stats_empty () =
  checkf "mean of empty" 0. (Stats.mean [||]);
  checkf "median of empty" 0. (Stats.median [||]);
  check Alcotest.int "summary n" 0 (Stats.summarize [||]).Stats.n

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  checkf "p0" 10. (Stats.percentile xs 0.);
  checkf "p50" 30. (Stats.percentile xs 50.);
  checkf "p100" 50. (Stats.percentile xs 100.);
  checkf "p25" 20. (Stats.percentile xs 25.)

let test_stats_geomean () =
  checkf "geomean" 2. (Stats.geomean [| 1.; 4. |]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [| 1.; 0. |]))

let prop_mean_within_bounds =
  QCheck.Test.make ~count:300 ~name:"mean lies within [min,max]"
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun l ->
      let xs = Array.of_list l in
      let m = Stats.mean xs in
      let lo, hi = Stats.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_median_within_bounds =
  QCheck.Test.make ~count:300 ~name:"median lies within [min,max]"
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun l ->
      let xs = Array.of_list l in
      let m = Stats.median xs in
      let lo, hi = Stats.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* --- Bitset --- *)

let test_bitset_basics () =
  let s = Bitset.create 70 in
  check Alcotest.bool "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 69;
  Bitset.add s 33;
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  check Alcotest.bool "mem 33" true (Bitset.mem s 33);
  Bitset.remove s 33;
  check Alcotest.bool "removed" false (Bitset.mem s 33);
  check Alcotest.(list int) "to_list sorted" [ 0; 69 ] (Bitset.to_list s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset: index 8 out of [0,8)")
    (fun () -> Bitset.add s 8)

let prop_bitset_model =
  (* Bitset algebra agrees with a sorted-list set model. *)
  let module IS = Set.Make (Int) in
  QCheck.Test.make ~count:300 ~name:"bitset union/inter/diff match set model"
    QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (la, lb) ->
      let a = Bitset.of_list 64 la and b = Bitset.of_list 64 lb in
      let sa = IS.of_list la and sb = IS.of_list lb in
      Bitset.to_list (Bitset.union a b) = IS.elements (IS.union sa sb)
      && Bitset.to_list (Bitset.inter a b) = IS.elements (IS.inter sa sb)
      && Bitset.to_list (Bitset.diff a b) = IS.elements (IS.diff sa sb)
      && Bitset.subset a (Bitset.union a b)
      && Bitset.disjoint a b = IS.is_empty (IS.inter sa sb))

let prop_bitset_union_into =
  QCheck.Test.make ~count:200 ~name:"union_into equals union"
    QCheck.(pair (list (int_bound 40)) (list (int_bound 40)))
    (fun (la, lb) ->
      let a = Bitset.of_list 41 la and b = Bitset.of_list 41 lb in
      let dst = Bitset.copy a in
      Bitset.union_into dst b;
      Bitset.equal dst (Bitset.union a b))

(* --- Table --- *)

(* Tiny substring helper to avoid a str dependency. *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"demo" [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  check Alcotest.bool "contains cell" true (contains_substring s "alpha");
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "x" ])

let test_table_cells () =
  check Alcotest.string "float cell" "3.14" (Table.cell_f ~decimals:2 3.14159);
  check Alcotest.string "pct cell" "41.3%" (Table.cell_pct 0.413);
  check Alcotest.string "speedup cell" "1.35x" (Table.cell_speedup 1.352)

(* --- Pool --- *)

let test_pool_tasks_exactly_once () =
  Kf_util.Pool.with_pool 4 (fun pool ->
      (* Many more tasks than domains: every index must run exactly
         once, whatever domain claims it. *)
      let n = 1000 in
      let hits = Array.make n 0 in
      Kf_util.Pool.run pool ~tasks:n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "task %d ran %d times" i c)
        hits;
      (* Degenerate shapes: no tasks, and fewer tasks than workers. *)
      Kf_util.Pool.run pool ~tasks:0 (fun _ -> Alcotest.fail "no tasks to run");
      let total = Atomic.make 0 in
      Kf_util.Pool.run pool ~tasks:3 (fun i -> ignore (Atomic.fetch_and_add total (i + 1)));
      check Alcotest.int "sum over 3 tasks" 6 (Atomic.get total))

let test_pool_stalled_task_drained_around () =
  Kf_util.Pool.with_pool 2 (fun pool ->
      (* Task 0 holds its domain until every other task has finished (or
         a deadline passes): the other domain must claim all of them from
         the shared counter while task 0 waits. *)
      let n = 64 in
      let done_others = Atomic.make 0 in
      let saw_all = ref false in
      Kf_util.Pool.run pool ~tasks:n (fun i ->
          if i = 0 then begin
            let deadline = Unix.gettimeofday () +. 10. in
            while Atomic.get done_others < n - 1 && Unix.gettimeofday () < deadline do
              Thread.delay 0.001
            done;
            saw_all := Atomic.get done_others = n - 1
          end
          else Atomic.incr done_others);
      check Alcotest.bool "other tasks finished while task 0 waited" true !saw_all)

let test_pool_of_one_runs_on_caller () =
  Kf_util.Pool.with_pool 1 (fun pool ->
      check Alcotest.int "size" 1 (Kf_util.Pool.size pool);
      let caller = (Domain.self () :> int) in
      let ran_on = Array.make 16 (-1) in
      for _ = 1 to 3 do
        Kf_util.Pool.run pool ~tasks:16 (fun i -> ran_on.(i) <- (Domain.self () :> int))
      done;
      Array.iteri
        (fun i d -> check Alcotest.int (Printf.sprintf "task %d domain" i) caller d)
        ran_on)

let test_pool_nested_run_stays_on_domain () =
  Kf_util.Pool.with_pool 2 (fun pool ->
      (* A run made from inside a fanned-out task cannot re-engage the
         busy helpers: it runs every one of its tasks, in order, on the
         domain that made it. *)
      let outer = 8 and inner = 5 in
      let hits = Array.make (outer * inner) 0 in
      let ok = Atomic.make true in
      Kf_util.Pool.run pool ~tasks:outer (fun o ->
          let self = Domain.self () in
          let last = ref (-1) in
          Kf_util.Pool.run pool ~tasks:inner (fun i ->
              if Domain.self () <> self || i <> !last + 1 then Atomic.set ok false;
              last := i;
              hits.((o * inner) + i) <- hits.((o * inner) + i) + 1));
      check Alcotest.bool "nested tasks in order on the outer task's domain" true (Atomic.get ok);
      Array.iteri (fun k c -> if c <> 1 then Alcotest.failf "nested task %d ran %d times" k c) hits)

let test_pool_propagates_exception () =
  Kf_util.Pool.with_pool 3 (fun pool ->
      Alcotest.check_raises "re-raised" Exit (fun () ->
          Kf_util.Pool.run pool ~tasks:3 (fun i -> if i = 1 then raise Exit));
      (* Still usable after a failed run. *)
      let total = Atomic.make 0 in
      Kf_util.Pool.run pool ~tasks:3 (fun i -> Atomic.fetch_and_add total (i + 1) |> ignore);
      check Alcotest.int "sum after failure" 6 (Atomic.get total))

exception Deep_failure of string

let test_pool_backtrace () =
  (* The re-raised exception must carry the originating worker's
     backtrace, not the dispatch site's: the frame that actually raised
     — deep inside the worker's task — has to be visible to whoever
     catches at the Pool.run boundary. *)
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace prev)
    (fun () ->
      let raise_line = ref 0 in
      let[@inline never] rec deep n =
        if n = 0 then begin
          raise_line := __LINE__ + 1;
          raise (Deep_failure "from worker")
        end
        else 1 + deep (n - 1)
      in
      Kf_util.Pool.with_pool 2 (fun pool ->
          match Kf_util.Pool.run pool ~tasks:2 (fun i -> if i = 1 then ignore (deep 5)) with
          | () -> Alcotest.fail "expected the worker's exception"
          | exception Deep_failure _ ->
              let bt = Printexc.get_raw_backtrace () in
              let slots = Option.value (Printexc.backtrace_slots bt) ~default:[||] in
              let found =
                Array.exists
                  (fun slot ->
                    match Printexc.Slot.location slot with
                    | Some { Printexc.filename; line_number; _ } ->
                        Filename.basename filename = "test_util.ml"
                        && line_number = !raise_line
                    | None -> false)
                  slots
              in
              check Alcotest.bool "raising worker frame present" true found))

let test_pool_repeated_failures_no_wedge () =
  (* A raising task must neither wedge the epoch/counter protocol nor
     poison later dispatches: failures and successes alternate across
     many runs on one pool, and worker coverage stays exact. *)
  Kf_util.Pool.with_pool 3 (fun pool ->
      for round = 1 to 20 do
        if round mod 2 = 1 then
          Alcotest.check_raises
            (Printf.sprintf "round %d raises" round)
            Exit
            (fun () ->
              Kf_util.Pool.run pool ~tasks:3 (fun i -> if i = round mod 3 then raise Exit))
        else begin
          let hits = Array.make 3 0 in
          Kf_util.Pool.run pool ~tasks:3 (fun i -> hits.(i) <- hits.(i) + 1);
          Array.iteri
            (fun w n -> check Alcotest.int (Printf.sprintf "round %d worker %d" round w) 1 n)
            hits
        end
      done)

let test_pool_invalid () =
  Alcotest.check_raises "zero size" (Invalid_argument "Pool.create: size must be positive")
    (fun () -> ignore (Kf_util.Pool.create 0));
  let pool = Kf_util.Pool.create 2 in
  Kf_util.Pool.shutdown pool;
  Kf_util.Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown" (Invalid_argument "Pool.run: pool is shut down")
    (fun () -> Kf_util.Pool.run pool ~tasks:1 (fun _ -> ()))

(* Claim-order invariance: a run over pure per-index tasks produces the
   same outputs for every (tasks, workers) shape — whichever domain ends
   up claiming an index, the result array is the one sequential
   execution would produce. *)
let prop_pool_claim_order_invariance =
  QCheck.Test.make ~count:30
    ~name:"pool run is a permutation-invariant map over task indices"
    QCheck.(pair (int_range 0 64) (int_range 1 4))
    (fun (tasks, workers) ->
      let expected = Array.init tasks (fun i -> (i * 31) lxor 5) in
      let out = Array.make tasks 0 in
      Kf_util.Pool.with_pool workers (fun pool ->
          Kf_util.Pool.run pool ~tasks (fun i ->
              if i land 7 = 0 then Thread.yield ();
              out.(i) <- (i * 31) lxor 5));
      out = expected)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_shuffle_is_permutation; prop_sample_distinct; prop_mean_within_bounds;
    prop_median_within_bounds; prop_bitset_model; prop_bitset_union_into;
    prop_pool_claim_order_invariance ]

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng invalid args" `Quick test_rng_invalid;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng split_n matches sequential splits" `Quick
      test_rng_split_n_matches_sequential;
    Alcotest.test_case "rng copy replays" `Quick test_rng_copy_replays;
    Alcotest.test_case "rng streams pinned, draws allocation-free" `Quick
      test_rng_streams_pinned;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats variance bessel" `Quick test_stats_variance_bessel;
    Alcotest.test_case "stats cv" `Quick test_stats_cv;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "pool tasks run exactly once" `Quick test_pool_tasks_exactly_once;
    Alcotest.test_case "pool drains around a stalled task" `Quick
      test_pool_stalled_task_drained_around;
    Alcotest.test_case "pool of 1 runs every task on the calling domain" `Quick
      test_pool_of_one_runs_on_caller;
    Alcotest.test_case "pool nested run stays on its domain" `Quick
      test_pool_nested_run_stays_on_domain;
    Alcotest.test_case "pool exception propagation" `Quick test_pool_propagates_exception;
    Alcotest.test_case "pool exception backtrace" `Quick test_pool_backtrace;
    Alcotest.test_case "pool repeated failures no wedge" `Quick
      test_pool_repeated_failures_no_wedge;
    Alcotest.test_case "pool invalid usage" `Quick test_pool_invalid;
  ]
  @ qsuite
