(* Tests for Kf_search.Stream: content diffs, warm plan mapping, the SLO
   ladder, the seed-plan warm start in Hgga, and the streaming
   equivalence/accounting contracts. *)

module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Inputs = Kf_model.Inputs
module Objective = Kf_search.Objective
module Grouping = Kf_search.Grouping
module Hgga = Kf_search.Hgga
module Stream = Kf_search.Stream
module Measure = Kf_sim.Measure
module Suite = Kf_workloads.Suite
module Motivating = Kf_workloads.Motivating
module Rng = Kf_util.Rng

let check = Alcotest.check
let device = Device.k20x
let bits = Int64.bits_of_float

let objective_of program =
  let meta = Kf_ir.Metadata.build program in
  let exec = Kf_graph.Exec_order.build (Kf_graph.Datadep.build program) in
  let measured_runtime =
    Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device program)
  in
  Objective.create (Inputs.make ~device ~meta ~exec ~measured_runtime)

let env : Stream.env = objective_of

let small_suite ?(kernels = 10) seed =
  Suite.generate { Suite.default with Suite.kernels = kernels; arrays = 2 * kernels; seed }

let bump_flops k =
  { k with Kernel.extra_flops_per_site = k.Kernel.extra_flops_per_site +. 7. }

let quick_params =
  {
    Hgga.default_params with
    Hgga.population_size = 16;
    max_generations = 15;
    stall_generations = 8;
  }

let quick_config =
  { Stream.default_config with Stream.params = quick_params; repair = quick_params }

(* --- diff --- *)

let test_diff_identity () =
  let p = small_suite 1 in
  let d = Stream.diff p p in
  check Alcotest.int "all matched" (Program.num_kernels p) (List.length d.Stream.matched);
  check Alcotest.(list int) "no removals" [] d.Stream.removed;
  check Alcotest.(list int) "no arrivals" [] d.Stream.added;
  List.iteri (fun i (o, n) ->
      check Alcotest.(pair int int) "identity pair" (i, i) (o, n))
    d.Stream.matched

let test_diff_restrict_renumbering () =
  (* Dropping kernel 2 renumbers 3..n-1; the content diff must still
     match them — matching by id would miss every shifted kernel. *)
  let p = small_suite 2 in
  let n = Program.num_kernels p in
  let keep = List.filter (fun k -> k <> 2) (List.init n Fun.id) in
  let q = Program.restrict p keep in
  let d = Stream.diff p q in
  check Alcotest.(list int) "kernel 2 removed" [ 2 ] d.Stream.removed;
  check Alcotest.(list int) "nothing arrived" [] d.Stream.added;
  check Alcotest.int "rest matched" (n - 1) (List.length d.Stream.matched);
  List.iter (fun (o, nw) ->
      check Alcotest.int "renumbered mapping" (if o < 2 then o else o - 1) nw)
    d.Stream.matched

let test_diff_edit () =
  (* An edited kernel is removed + added: its content changed, so its old
     self has no match and its new self is an arrival. *)
  let p = small_suite 3 in
  let q = Program.edit_kernel p 4 bump_flops in
  let d = Stream.diff p q in
  check Alcotest.(list int) "old form removed" [ 4 ] d.Stream.removed;
  check Alcotest.(list int) "new form arrived" [ 4 ] d.Stream.added;
  check Alcotest.int "rest matched" (Program.num_kernels p - 1) (List.length d.Stream.matched)

let test_diff_order_preserving () =
  let p = small_suite 4 in
  let n = Program.num_kernels p in
  let keep = List.filter (fun k -> k mod 3 <> 1) (List.init n Fun.id) in
  let q = Program.restrict p keep in
  let d = Stream.diff p q in
  let rec monotone = function
    | (o1, n1) :: ((o2, n2) :: _ as rest) ->
        o1 < o2 && n1 < n2 && monotone rest
    | _ -> true
  in
  check Alcotest.bool "LCS matching is order-preserving" true (monotone d.Stream.matched)

(* --- warm_plan --- *)

let test_warm_plan_mapping () =
  (* Motivating program: the A+B fusion survives dropping kernel C; the
     rest renumber and D's singleton just maps through. *)
  let p = Motivating.program () in
  let q = Program.restrict p [ 0; 1; 3; 4 ] in
  let obj = objective_of q in
  let d = Stream.diff p q in
  let prev = [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  let warm, reused = Stream.warm_plan obj d ~prev ~n:4 in
  check Alcotest.(list (list int)) "mapped and renumbered"
    [ [ 0; 1 ]; [ 2 ]; [ 3 ] ] warm;
  check Alcotest.int "A+B counted as reused" 1 reused

let test_warm_plan_arrivals_singletons () =
  (* Reverse direction: the restricted program is the old version, the
     full one the new — the re-arrived kernel enters as a singleton. *)
  let p = Motivating.program () in
  let q = Program.restrict p [ 0; 1; 3; 4 ] in
  let obj = objective_of p in
  let d = Stream.diff q p in
  let prev = [ [ 0; 1 ]; [ 2 ]; [ 3 ] ] in
  let warm, reused = Stream.warm_plan obj d ~prev ~n:5 in
  check Alcotest.(list (list int)) "arrival is a singleton"
    [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] warm;
  check Alcotest.int "A+B still reused" 1 reused

let test_warm_plan_dissolves_infeasible () =
  (* A group whose members no longer pass the feasibility check must
     dissolve to singletons instead of poisoning the seed.  A and C share
     no array in the motivating program, so [0;2] is infeasible. *)
  let p = Motivating.program () in
  let obj = objective_of p in
  let d = Stream.diff p p in
  let warm, reused = Stream.warm_plan obj d ~prev:[ [ 0; 2 ]; [ 1 ]; [ 3 ]; [ 4 ] ] ~n:5 in
  check Alcotest.(list (list int)) "infeasible group dissolved"
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] warm;
  check Alcotest.int "nothing reused" 0 reused

(* --- Hgga seed_plans --- *)

let test_seed_plans_empty_bit_identical () =
  let solve seed_plans =
    Hgga.solve ~params:quick_params ~seed_plans (objective_of (small_suite 5))
  in
  let r1 = solve [] and r2 = solve [] in
  ignore r2;
  let r0 = Hgga.solve ~params:quick_params (objective_of (small_suite 5)) in
  check Alcotest.bool "same plan as historical construction" true
    (Kf_fusion.Plan.equal r0.Hgga.plan r1.Hgga.plan);
  check Alcotest.bool "bitwise-equal cost" true (bits r0.Hgga.cost = bits r1.Hgga.cost);
  check Alcotest.int "same evaluation count" r0.Hgga.stats.Hgga.evaluations
    r1.Hgga.stats.Hgga.evaluations

let test_seed_plans_counters_not_preseeded () =
  (* The satellite-1 contract at the Hgga level: seeds are evaluated
     through the objective like any individual, so the run's counter is
     exactly the fresh objective's counter — never the seed's history. *)
  let obj1 = objective_of (small_suite 6) in
  let r1 = Hgga.solve ~params:quick_params obj1 in
  let obj2 = objective_of (small_suite 6) in
  let r2 = Hgga.solve ~params:quick_params ~seed_plans:[ r1.Hgga.groups ] obj2 in
  check Alcotest.int "run counter = objective counter" (Objective.evaluations obj2)
    r2.Hgga.stats.Hgga.evaluations;
  check Alcotest.bool "seeded run at least as good" true (r2.Hgga.cost <= r1.Hgga.cost +. 1e-12)

let test_seed_plans_resume_exclusive () =
  let obj = objective_of (small_suite 6) in
  let raised =
    try
      ignore (Hgga.solve ~params:quick_params ~resume_from:"/nonexistent.snapshot"
                ~seed_plans:[ [ [ 0 ] ] ] obj);
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "seed_plans + resume_from rejected" true raised

let test_seed_plans_bad_kernel () =
  let obj = objective_of (Motivating.program ()) in
  let raised =
    try
      ignore (Hgga.solve ~params:quick_params ~seed_plans:[ [ [ 0; 99 ] ] ] obj);
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "out-of-range seed member rejected" true raised

(* --- stream accounting (the satellite-1 regression) --- *)

let test_stream_eval_accounting () =
  (* Two-decision stream.  Each decision's [d_evaluations] must equal
     the count an identical standalone run performs on a fresh objective
     — if warm-starting double-counted the seed plan's cached
     evaluations (the bug this pins), the streamed count would exceed
     the replicated one. *)
  let base = small_suite 11 in
  let edited = Program.edit_kernel base 3 bump_flops in
  let t = Stream.create ~config:quick_config env base in
  let d0 = Stream.last t in
  let d1 = Stream.step t edited in
  check Alcotest.int "v0 total is its own count" d0.Stream.d_evaluations
    d0.Stream.d_total_evaluations;
  check Alcotest.int "totals are per-decision sums"
    (d0.Stream.d_evaluations + d1.Stream.d_evaluations)
    d1.Stream.d_total_evaluations;
  check Alcotest.int "stream accessor agrees" d1.Stream.d_total_evaluations
    (Stream.total_evaluations t);
  (* Replicate decision 1 by hand on a fresh objective. *)
  let obj = objective_of edited in
  let delta = Stream.diff base edited in
  let warm, _ =
    Stream.warm_plan obj delta ~prev:d0.Stream.d_groups ~n:(Program.num_kernels edited)
  in
  let refined = Kf_fusion.Plan.canonical_groups (Grouping.local_refine ~max_passes:1 obj warm) in
  let seeds = if refined = warm then [ warm ] else [ warm; refined ] in
  let params = { quick_params with Hgga.seed = quick_params.Hgga.seed + 1 } in
  let r = Hgga.solve ~params ~seed_plans:seeds obj in
  check Alcotest.int "exact eval count, no seed double-count"
    (Objective.evaluations obj) d1.Stream.d_evaluations;
  check Alcotest.bool "bitwise-equal cost" true (bits r.Hgga.cost = bits d1.Stream.d_cost);
  check Alcotest.(list (list int)) "same plan" r.Hgga.groups d1.Stream.d_groups

let test_stream_identical_program () =
  let base = small_suite 12 in
  let t = Stream.create ~config:quick_config env base in
  let d0 = Stream.last t in
  let d1 = Stream.step t base in
  check Alcotest.int "no change detected" 0 d1.Stream.d_changed;
  check Alcotest.bool "repair rung" true (d1.Stream.d_rung = Stream.Repair_search);
  check Alcotest.bool "cost never worse than previous answer" true
    (d1.Stream.d_cost <= d0.Stream.d_cost +. 1e-12)

let test_stream_slo_greedy_fallback () =
  (* A deadline too tight for any GA: later decisions must take the
     greedy rung and flag the trip; version 0 still searches (with
     [min_search_s] as its budget). *)
  let config = { quick_config with Stream.slo_s = Some 1e-9; min_search_s = 0.005 } in
  let base = small_suite 13 in
  let t = Stream.create ~config env base in
  let d0 = Stream.last t in
  check Alcotest.bool "v0 is a full search" true (d0.Stream.d_rung = Stream.Full_search);
  let d1 = Stream.step t (Program.edit_kernel base 2 bump_flops) in
  check Alcotest.bool "greedy rung under tight SLO" true
    (d1.Stream.d_rung = Stream.Greedy_repair);
  check Alcotest.bool "trip flagged" true d1.Stream.d_slo_tripped;
  check Alcotest.bool "still a schedulable plan" true
    (Grouping.schedulable (objective_of (Stream.program t)) d1.Stream.d_groups)

let test_stream_domain_invariance () =
  (* The determinism contract lifted to traces: a fixed edit trace with
     fixed seeds yields bit-identical decisions for any [domains]. *)
  let run domains =
    let params = { quick_params with Hgga.islands = 2; domains } in
    let config = { Stream.default_config with Stream.params = params; repair = params } in
    let base = small_suite 14 in
    let t = Stream.create ~config env base in
    let v1 = Program.edit_kernel base 1 bump_flops in
    ignore (Stream.step t v1);
    let keep = List.filter (fun k -> k <> 5) (List.init (Program.num_kernels v1) Fun.id) in
    ignore (Stream.step t (Program.restrict v1 keep));
    Stream.decisions t
  in
  let ds1 = run 1 and ds4 = run 4 in
  check Alcotest.int "same decision count" (List.length ds1) (List.length ds4);
  List.iter2
    (fun (a : Stream.decision) (b : Stream.decision) ->
      check Alcotest.(list (list int)) "same groups" a.Stream.d_groups b.Stream.d_groups;
      check Alcotest.bool "bitwise-equal cost" true (bits a.Stream.d_cost = bits b.Stream.d_cost);
      check Alcotest.int "same evaluations" a.Stream.d_evaluations b.Stream.d_evaluations)
    ds1 ds4

(* --- a fixed arrival trace against fresh searches --- *)

(* An 8-version trace over a 16-kernel suite: start with 10 resident
   kernels, then arrivals, edits in place and a removal.  The stream
   repairs each version from the previous decision with a small, quickly
   stalling search; a fresh search re-decides it from scratch. *)
let trace_versions () =
  let base = ref (Suite.generate { Suite.default with Suite.kernels = 16; arrays = 32; seed = 7 }) in
  let keep = ref (List.init 10 Fun.id) in
  let step = function
    | `Add k -> keep := List.sort compare (k :: !keep)
    | `Remove k -> keep := List.filter (( <> ) k) !keep
    | `Edit k ->
        base :=
          Program.edit_kernel !base k (fun k ->
              { k with Kernel.extra_flops_per_site = k.Kernel.extra_flops_per_site +. 9. })
  in
  let v0 = Program.restrict !base !keep in
  v0
  :: List.map
       (fun op ->
         step op;
         Program.restrict !base !keep)
       [ `Add 10; `Add 11; `Edit 3; `Add 12; `Remove 5; `Edit 8; `Add 5 ]

let trace_decisions ~domains versions =
  let params = { Hgga.default_params with Hgga.domains } in
  let repair =
    { params with Hgga.population_size = 10; max_generations = 30; stall_generations = 5 }
  in
  let config = { Stream.default_config with Stream.params; repair } in
  let t = Kfuse.Pipeline.stream ~config ~device (List.hd versions) in
  List.iter (fun p -> ignore (Stream.step t p)) (List.tl versions);
  Stream.decisions t

let test_stream_trace () =
  let versions = trace_versions () in
  let ds = trace_decisions ~domains:1 versions in
  let digest (d : Stream.decision) =
    Printf.sprintf "%s %s cost=%Lx evals=%d" (Stream.rung_name d.Stream.d_rung)
      (String.concat "|" (List.map (fun g -> String.concat "," (List.map string_of_int g)) d.Stream.d_groups))
      (bits d.Stream.d_cost) d.Stream.d_evaluations
  in
  check Alcotest.(list string) "decisions bit-identical for 1 and 4 domains"
    (List.map digest ds) (List.map digest (trace_decisions ~domains:4 versions));
  check Alcotest.(list string) "pinned decisions"
    [ "full-search 0,1|2,3|4,5,6|7,8|9 cost=3f801ca40f6a435a evals=437";
      "repair-search 0,1|2,3|4,5,6|7,8|9,10 cost=3f80fe17437ecb7d evals=215";
      "repair-search 0,1|2,3|4,5,6|7,8|9|10,11 cost=3f82ba0e2b14227c evals=258";
      "repair-search 0,1|2,3|4,5,6|7,8|9|10,11 cost=3f82ba0e2b14227c evals=238";
      "repair-search 0,1|2,3|4,5,6|7,8|9|10,11|12 cost=3f840ed44051e694 evals=272";
      "repair-search 0,8|1|2,3|4,5|6,7|9,10|11 cost=3f816f3116de05cb evals=227";
      "repair-search 0,8|1|2,3|4,5|6,7|9,10|11 cost=3f816f3116de05cb evals=200";
      "repair-search 0,9|1|2,3|4|5,6|7,8|10,11|12 cost=3f842910ddb4f6a3 evals=253" ]
    (List.map digest ds);
  let repair_evals = ref 0 and fresh_evals = ref 0 in
  List.iteri
    (fun i ((d : Stream.decision), p) ->
      let params = { Hgga.default_params with Hgga.seed = Hgga.default_params.Hgga.seed + i } in
      let fresh = Hgga.solve ~params Kfuse.Pipeline.(objective (prepare ~device p)) in
      if i > 0 then begin
        repair_evals := !repair_evals + d.Stream.d_evaluations;
        fresh_evals := !fresh_evals + fresh.Hgga.stats.Hgga.evaluations
      end;
      check Alcotest.bool
        (Printf.sprintf "version %d within 1.02 of a fresh search (%.4f)" i
           (d.Stream.d_cost /. fresh.Hgga.cost))
        true
        (d.Stream.d_cost <= 1.02 *. fresh.Hgga.cost))
    (List.combine ds versions);
  (* the deterministic counterpart of the amortized wall-time speedup *)
  check Alcotest.bool
    (Printf.sprintf "repairs evaluate <= 1/4 of fresh searches (%d vs %d)" !repair_evals
       !fresh_evals)
    true
    (4 * !repair_evals <= !fresh_evals)

(* --- qcheck equivalence walk (satellite 4) --- *)

(* A deterministic random edit trace: maintain an (edited) base program
   and a keep-set; each step adds an absent kernel back, removes one, or
   edits one in place.  Returns the program of every version. *)
let random_trace seed =
  let rng = Rng.create (1 + (seed * 37)) in
  let base = ref (small_suite ~kernels:8 (seed + 1)) in
  let n = Program.num_kernels !base in
  let keep = ref (List.init (n - 2) Fun.id) in
  let version () = Program.restrict !base !keep in
  let versions = ref [ version () ] in
  for _ = 1 to 3 do
    let absent = List.filter (fun k -> not (List.mem k !keep)) (List.init n Fun.id) in
    (match Rng.int rng 3 with
    | 0 when absent <> [] -> keep := List.sort compare (List.nth absent (Rng.int rng (List.length absent)) :: !keep)
    | 1 when List.length !keep > 3 ->
        let victim = List.nth !keep (Rng.int rng (List.length !keep)) in
        keep := List.filter (fun k -> k <> victim) !keep
    | _ ->
        let target = List.nth !keep (Rng.int rng (List.length !keep)) in
        base := Program.edit_kernel !base target bump_flops);
    versions := version () :: !versions
  done;
  List.rev !versions

let equivalence_params islands =
  {
    Hgga.default_params with
    Hgga.population_size = 24;
    max_generations = 60;
    stall_generations = 30;
    islands;
  }

let prop_equivalence_walk islands =
  QCheck.Test.make ~count:4
    ~name:(Printf.sprintf "warm repair within 1.02 of full re-search (islands=%d)" islands)
    QCheck.small_int
    (fun seed ->
      let params = equivalence_params islands in
      let config =
        { Stream.default_config with Stream.params = params; repair = params }
      in
      match random_trace seed with
      | [] -> true
      | v0 :: rest ->
          let t = Stream.create ~config env v0 in
          List.iteri
            (fun i p ->
              let d = Stream.step t p in
              let full =
                Hgga.solve
                  ~params:{ params with Hgga.seed = params.Hgga.seed + i + 1 }
                  (objective_of p)
              in
              (* Unlimited SLO: the warm-started repair keeps the plan
                 quality of searching this version from scratch.  Either
                 may find the better plan; the repair may lose 2%. *)
              if d.Stream.d_cost > 1.02 *. full.Hgga.cost then
                QCheck.Test.fail_reportf
                  "version %d: warm %.17g vs full %.17g (seed %d)" (i + 1)
                  d.Stream.d_cost full.Hgga.cost seed)
            rest;
          true)

let suite =
  [
    Alcotest.test_case "diff identity" `Quick test_diff_identity;
    Alcotest.test_case "diff survives restrict renumbering" `Quick test_diff_restrict_renumbering;
    Alcotest.test_case "diff edit = removed + added" `Quick test_diff_edit;
    Alcotest.test_case "diff order preserving" `Quick test_diff_order_preserving;
    Alcotest.test_case "warm plan mapping" `Quick test_warm_plan_mapping;
    Alcotest.test_case "warm plan arrivals" `Quick test_warm_plan_arrivals_singletons;
    Alcotest.test_case "warm plan dissolves infeasible" `Quick test_warm_plan_dissolves_infeasible;
    Alcotest.test_case "seed_plans [] bit-identical" `Slow test_seed_plans_empty_bit_identical;
    Alcotest.test_case "seed_plans counters not pre-seeded" `Slow test_seed_plans_counters_not_preseeded;
    Alcotest.test_case "seed_plans excludes resume_from" `Quick test_seed_plans_resume_exclusive;
    Alcotest.test_case "seed_plans rejects bad kernel" `Quick test_seed_plans_bad_kernel;
    Alcotest.test_case "stream evaluation accounting" `Slow test_stream_eval_accounting;
    Alcotest.test_case "stream identical program" `Slow test_stream_identical_program;
    Alcotest.test_case "stream SLO greedy fallback" `Quick test_stream_slo_greedy_fallback;
    Alcotest.test_case "stream domain invariance" `Slow test_stream_domain_invariance;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_equivalence_walk 1; prop_equivalence_walk 4 ]
  @ [ Alcotest.test_case "stream trace against fresh searches" `Slow test_stream_trace ]
