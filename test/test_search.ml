(* Tests for Kf_search: objective, grouping operations, HGGA, exact solver,
   greedy and random baselines. *)

module Device = Kf_gpu.Device
module Inputs = Kf_model.Inputs
module Objective = Kf_search.Objective
module Grouping = Kf_search.Grouping
module Hgga = Kf_search.Hgga
module Exact = Kf_search.Exact
module Greedy = Kf_search.Greedy
module Random_search = Kf_search.Random_search
module Plan = Kf_fusion.Plan
module Measure = Kf_sim.Measure
module Suite = Kf_workloads.Suite
module Motivating = Kf_workloads.Motivating

let check = Alcotest.check
let device = Device.k20x

let inputs_of program =
  let meta = Kf_ir.Metadata.build program in
  let exec = Kf_graph.Exec_order.build (Kf_graph.Datadep.build program) in
  let measured_runtime =
    Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device program)
  in
  Inputs.make ~device ~meta ~exec ~measured_runtime

let objective_of ?guard program = Objective.create ?guard (inputs_of program)

let motivating_obj () = objective_of (Motivating.program ())

let small_suite seed =
  Suite.generate { Suite.default with Suite.kernels = 12; arrays = 24; seed }

(* --- Objective --- *)

let test_objective_singleton_cost () =
  let obj = motivating_obj () in
  let i = Objective.inputs obj in
  check (Alcotest.float 1e-12) "singleton measured" i.Inputs.measured_runtime.(0)
    (Objective.group_cost obj [ 0 ]);
  check Alcotest.int "no evaluations for singletons" 0 (Objective.evaluations obj)

let test_objective_caching () =
  let obj = motivating_obj () in
  ignore (Objective.group_cost obj [ 0; 1 ]);
  let n1 = Objective.evaluations obj in
  ignore (Objective.group_cost obj [ 1; 0 ]);
  check Alcotest.int "cache hit on permuted group" n1 (Objective.evaluations obj);
  ignore (Objective.group_cost obj [ 2; 3 ]);
  check Alcotest.int "miss counts" (n1 + 1) (Objective.evaluations obj)

let test_objective_infeasible () =
  let obj = motivating_obj () in
  (* A and C share no array: kinship fails. *)
  check Alcotest.bool "infeasible group" false (Objective.group_feasible obj [ 0; 2 ]);
  check Alcotest.bool "infinite cost" true (Objective.group_cost obj [ 0; 2 ] = Float.infinity)

let test_objective_profitability () =
  let obj = motivating_obj () in
  check Alcotest.bool "X profitable" true (Objective.group_profitable obj Motivating.fusion_x);
  check Alcotest.bool "Y not profitable" false (Objective.group_profitable obj Motivating.fusion_y)

let test_objective_plan_cost () =
  let obj = motivating_obj () in
  let identity = List.init 5 (fun k -> [ k ]) in
  let i = Objective.inputs obj in
  let total = Array.fold_left ( +. ) 0. i.Inputs.measured_runtime in
  check (Alcotest.float 1e-12) "identity = measured total" total (Objective.plan_cost obj identity)

let test_objective_models_differ () =
  let p = Motivating.program () in
  let meta = Kf_ir.Metadata.build p in
  let exec = Kf_graph.Exec_order.build (Kf_graph.Datadep.build p) in
  let measured_runtime =
    Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
  in
  let i = Inputs.make ~device ~meta ~exec ~measured_runtime in
  let costs =
    List.map
      (fun m -> Objective.group_cost (Objective.create ~model:m i) Motivating.fusion_y)
      [ Objective.Proposed; Objective.Roofline; Objective.Simple; Objective.Mwp ]
  in
  check Alcotest.int "four distinct costs" 4 (List.length (List.sort_uniq compare costs))

(* --- Grouping --- *)

let test_grouping_normalize () =
  check
    Alcotest.(list (list int))
    "canonical"
    [ [ 0; 3 ]; [ 1; 2 ] ]
    (Plan.canonical_groups [ [ 2; 1 ]; [ 3; 0 ] ])

let test_grouping_absorbing_merge () =
  let obj = motivating_obj () in
  (* Merging A and B succeeds and leaves the others untouched. *)
  let groups = List.init 5 (fun k -> [ k ]) in
  match Grouping.merge_pair obj groups [ 0 ] [ 1 ] with
  | None -> Alcotest.fail "merge should succeed"
  | Some (merged, rest) ->
      check Alcotest.(list int) "merged" [ 0; 1 ] (List.sort compare merged);
      check Alcotest.int "rest" 3 (List.length rest)

let test_grouping_dissolve () =
  let groups = [ [ 0; 1 ]; [ 2 ] ] in
  check Alcotest.(list (list int)) "dissolved" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (Plan.canonical_groups (Grouping.dissolve groups [ 0; 1 ]))

(* Four kernels reading one shared array (so every group is
   kin-connected) with the dependencies 0 -> 1 and 2 -> 3 and no path
   from 0 to 3.  Merging [0] with [3] is path-closed on its own, but
   with [1; 2] as a third group it makes the condensation cycle
   {0,3} -> {1,2} -> {0,3}.  [heavy] gives kernel 2 the device's full
   register file, so any group holding it with another kernel is
   infeasible. *)
let cycle_program ~heavy =
  let open Kf_ir in
  let acc array mode = { Access.array; mode; pattern = Stencil.point; flops = 1. } in
  let g = Grid.make ~nx:64 ~ny:32 ~nz:2 ~block_x:16 ~block_y:8 in
  let arrays =
    List.mapi (fun id name -> Array_info.make ~id ~name ()) [ "r"; "a"; "b"; "c"; "d" ]
  in
  let kernel id ?registers_per_thread reads write =
    Kernel.make ~id ~name:(Printf.sprintf "k%d" id) ?registers_per_thread
      ~accesses:(List.map (fun a -> acc a Access.Read) (0 :: reads) @ [ acc write Access.Write ])
      ()
  in
  let kernels =
    [
      kernel 0 [] 1;
      kernel 1 [ 1 ] 2;
      kernel 2 ?registers_per_thread:(if heavy then Some 255 else None) [] 3;
      kernel 3 [ 3 ] 4;
    ]
  in
  Program.create ~name:"cycle" ~grid:g ~arrays ~kernels

let cycle_groups = [ [ 0 ]; [ 3 ]; [ 1; 2 ] ]

let test_grouping_merge_absorbs_cycle () =
  let obj = objective_of (cycle_program ~heavy:false) in
  let exec = (Objective.inputs obj).Inputs.exec in
  check Alcotest.bool "{0,3} is path-closed" true (Kf_graph.Exec_order.group_is_convex exec [ 0; 3 ]);
  let st = Grouping.Partition.of_groups obj cycle_groups in
  check Alcotest.bool "schedulable before" true (Grouping.Partition.acyclic st);
  let v = Grouping.Partition.merge st [ Grouping.Partition.group_of st 0; Grouping.Partition.group_of st 3 ] in
  if not v.Objective.feasible then Alcotest.fail "merge should be feasible";
  check Alcotest.(list int) "third group absorbed" [ 0; 1; 2; 3 ] (Grouping.Partition.merged_group st);
  Grouping.Partition.commit st;
  check Alcotest.(list (list int)) "one group" [ [ 0; 1; 2; 3 ] ] (Grouping.Partition.to_groups st);
  check
    Alcotest.(option (pair (list int) (list (list int))))
    "list oracle agrees"
    (Legacy_grouping.merge_pair obj cycle_groups [ 0 ] [ 3 ])
    (Some ([ 0; 1; 2; 3 ], []))

let test_grouping_infeasible_merge_keeps_state () =
  let obj = objective_of (cycle_program ~heavy:true) in
  check Alcotest.bool "the pair alone is feasible" true (Objective.group_feasible obj [ 0; 3 ]);
  let st = Grouping.Partition.of_groups obj cycle_groups in
  let kin st =
    List.map
      (fun g ->
        let c = Grouping.Partition.kin_adjacent st g in
        List.init c (Grouping.Partition.candidate st))
      [ 0; 1; 2 ]
  in
  let kin_before = kin st in
  check Alcotest.bool "absorbed merge infeasible" false
    (Grouping.Partition.merge st [ Grouping.Partition.group_of st 0; Grouping.Partition.group_of st 3 ])
      .Objective.feasible;
  check Alcotest.(list (list int)) "groups unchanged" cycle_groups (Grouping.Partition.to_groups st);
  check Alcotest.(list (list int)) "kinship unchanged" kin_before (kin st);
  check Alcotest.bool "still schedulable" true (Grouping.Partition.acyclic st);
  (* The state still works: split off the heavy kernel and merge. *)
  Grouping.Partition.dissolve st (Grouping.Partition.group_of st 1);
  let v = Grouping.Partition.merge st [ Grouping.Partition.group_of st 0; Grouping.Partition.group_of st 1 ] in
  if not v.Objective.feasible then Alcotest.fail "{0,1} should be feasible";
  Grouping.Partition.commit st;
  check Alcotest.(list (list int)) "merged after the failure" [ [ 0; 1 ]; [ 3 ]; [ 2 ] ]
    (Grouping.Partition.to_groups st)

let test_grouping_random_plan_valid () =
  let obj = objective_of (small_suite 5) in
  let rng = Kf_util.Rng.create 9 in
  for _ = 1 to 10 do
    let groups = Grouping.random_plan obj rng 12 in
    let plan = Plan.of_groups ~n:12 groups in
    let i = Objective.inputs obj in
    let violations = Plan.validate ~device ~meta:i.Inputs.meta ~exec:i.Inputs.exec plan in
    check Alcotest.int "random plan has no violations" 0 (List.length violations);
    check Alcotest.bool "schedulable" true (Grouping.schedulable obj groups)
  done

let test_grouping_enforce_profitability () =
  let obj = motivating_obj () in
  let groups = [ Motivating.fusion_x; Motivating.fusion_y ] in
  let cleaned = Grouping.enforce_profitability obj groups in
  (* Y is unprofitable: dissolved; X stays. *)
  check Alcotest.bool "X kept" true (List.mem (List.sort compare Motivating.fusion_x) cleaned);
  check Alcotest.bool "Y dissolved" false (List.mem (List.sort compare Motivating.fusion_y) cleaned);
  check Alcotest.int "singletons appear" 5
    (List.fold_left (fun acc g -> acc + List.length g) 0 cleaned)

(* --- Solvers --- *)

let test_hgga_beats_identity () =
  let obj = objective_of (small_suite 1) in
  let identity_cost = Objective.plan_cost obj (List.init 12 (fun k -> [ k ])) in
  let r = Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 60 } obj in
  check Alcotest.bool "improves on identity" true (r.Hgga.cost <= identity_cost);
  check Alcotest.int "plan covers all kernels" 12 (Plan.num_kernels r.Hgga.plan)

let test_hgga_plan_valid () =
  let obj = objective_of (small_suite 2) in
  let r = Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 40 } obj in
  let i = Objective.inputs obj in
  let violations = Plan.validate ~device ~meta:i.Inputs.meta ~exec:i.Inputs.exec r.Hgga.plan in
  check Alcotest.int "no violations" 0 (List.length violations)

let test_hgga_deterministic () =
  let r1 = Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 30 } (objective_of (small_suite 3)) in
  let r2 = Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 30 } (objective_of (small_suite 3)) in
  check Alcotest.bool "same plan" true (Plan.equal r1.Hgga.plan r2.Hgga.plan);
  check (Alcotest.float 1e-12) "same cost" r1.Hgga.cost r2.Hgga.cost

let test_hgga_stats () =
  let obj = objective_of (small_suite 4) in
  let r = Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 30 } obj in
  check Alcotest.bool "ran generations" true (r.Hgga.stats.Hgga.generations > 0);
  check Alcotest.bool "counted evaluations" true (r.Hgga.stats.Hgga.evaluations > 0);
  check Alcotest.bool "history non-empty" true (r.Hgga.stats.Hgga.improvement_history <> [])

let test_exact_small () =
  let obj = motivating_obj () in
  let r = Exact.solve obj in
  (* The optimum on the motivating example fuses A+B and leaves C,D,E (or
     better); the exact cost can never exceed the identity cost. *)
  let identity_cost = Objective.plan_cost obj (List.init 5 (fun k -> [ k ])) in
  check Alcotest.bool "at most identity" true (r.Exact.cost <= identity_cost +. 1e-12);
  check Alcotest.bool "enumerated groups" true (r.Exact.feasible_groups >= 5);
  check Alcotest.bool "contains AB fusion" true
    (List.mem [ 0; 1 ] r.Exact.groups)

let test_exact_matches_brute_force () =
  (* Tiny instance: exhaustive set-partition enumeration as ground truth. *)
  let p = small_suite 6 in
  let p =
    (* restrict to the first 7 kernels by building a fresh suite config *)
    ignore p;
    Suite.generate { Suite.default with Suite.kernels = 7; arrays = 14; seed = 6 }
  in
  let obj = objective_of p in
  let n = 7 in
  (* Enumerate all partitions of {0..6} (Bell(7) = 877). *)
  let rec partitions = function
    | [] -> [ [] ]
    | x :: rest ->
        List.concat_map
          (fun part ->
            let with_existing =
              List.mapi
                (fun i _ -> List.mapi (fun j g -> if i = j then x :: g else g) part)
                part
            in
            ([ x ] :: part) :: with_existing)
          (partitions rest)
  in
  let all = partitions [ 0; 1; 2; 3; 4; 5; 6 ] in
  let i = Objective.inputs obj in
  let best =
    List.fold_left
      (fun acc part ->
        let plan = Plan.of_groups ~n part in
        if Plan.validate ~device ~meta:i.Inputs.meta ~exec:i.Inputs.exec plan = [] then begin
          let c = Objective.plan_cost obj part in
          if c < acc then c else acc
        end
        else acc)
      Float.infinity all
  in
  let r = Exact.solve ~max_group_size:7 obj in
  check Alcotest.bool "exact <= brute force" true (r.Exact.cost <= best +. 1e-9)

let test_greedy () =
  let obj = objective_of (small_suite 7) in
  let identity_cost = Objective.plan_cost obj (List.init 12 (fun k -> [ k ])) in
  let r = Greedy.solve obj in
  check Alcotest.bool "greedy improves" true (r.Greedy.cost <= identity_cost);
  check Alcotest.bool "made merges" true (r.Greedy.merges >= 0);
  let i = Objective.inputs obj in
  check Alcotest.int "greedy plan valid" 0
    (List.length (Plan.validate ~device ~meta:i.Inputs.meta ~exec:i.Inputs.exec r.Greedy.plan))

let test_random_search () =
  let obj = objective_of (small_suite 8) in
  let identity_cost = Objective.plan_cost obj (List.init 12 (fun k -> [ k ])) in
  let r = Random_search.solve ~samples:50 obj in
  check Alcotest.bool "random improves or matches" true (r.Random_search.cost <= identity_cost);
  let i = Objective.inputs obj in
  check Alcotest.int "random plan valid" 0
    (List.length (Plan.validate ~device ~meta:i.Inputs.meta ~exec:i.Inputs.exec r.Random_search.plan))

(* --- Parallel determinism and cache consistency --- *)

let clover_obj () = objective_of (Kf_workloads.Cloverleaf.program ())

let suite30_obj () =
  objective_of (Suite.generate { Suite.default with Suite.kernels = 30; arrays = 60; seed = 42 })

let solve_clover ?(islands = 1) ?(objective = clover_obj) ~domains () =
  Hgga.solve
    ~params:
      {
        Hgga.default_params with
        Hgga.max_generations = 20;
        stall_generations = 1000;
        domains;
        islands;
      }
    (objective ())

let test_hgga_domain_invariance () =
  (* The determinism contract: worker-domain count is a throughput knob,
     never a result knob.  Same plan AND same evaluation count — the
     latter is the regression for duplicate concurrent misses each
     burning a budget increment. *)
  let r1 = solve_clover ~domains:1 () in
  let r4 = solve_clover ~domains:4 () in
  check Alcotest.bool "same plan (1 vs 4 domains)" true (Plan.equal r1.Hgga.plan r4.Hgga.plan);
  check (Alcotest.float 0.) "same cost" r1.Hgga.cost r4.Hgga.cost;
  check Alcotest.int "same evaluation count" r1.Hgga.stats.Hgga.evaluations
    r4.Hgga.stats.Hgga.evaluations

let test_hgga_island_domain_invariance () =
  (* Fixed island count, varying worker count: islands advance in
     lockstep on their own generators, so the fan-out must be invisible
     in the plan, the history, and the evaluation count. *)
  List.iter
    (fun (name, objective, domain_counts) ->
      let r1 = solve_clover ~islands:4 ~objective ~domains:1 () in
      List.iter
        (fun domains ->
          let rd = solve_clover ~islands:4 ~objective ~domains () in
          let what = Printf.sprintf "%s, islands=4, 1 vs %d domains" name domains in
          check Alcotest.bool ("same plan: " ^ what) true (Plan.equal r1.Hgga.plan rd.Hgga.plan);
          check Alcotest.bool ("same cost bits: " ^ what) true
            (Int64.bits_of_float r1.Hgga.cost = Int64.bits_of_float rd.Hgga.cost);
          check Alcotest.int ("same evaluation count: " ^ what) r1.Hgga.stats.Hgga.evaluations
            rd.Hgga.stats.Hgga.evaluations;
          check Alcotest.bool ("same improvement history: " ^ what) true
            (r1.Hgga.stats.Hgga.improvement_history = rd.Hgga.stats.Hgga.improvement_history))
        domain_counts)
    [ ("cloverleaf", clover_obj, [ 4 ]); ("suite-30", suite30_obj, [ 2; 4 ]) ]

let test_hgga_islands_search () =
  (* The island model still searches: improves on identity and yields a
     valid plan. *)
  let obj = clover_obj () in
  let n = Kf_ir.Program.num_kernels (Kf_workloads.Cloverleaf.program ()) in
  let identity_cost = Objective.plan_cost obj (List.init n (fun k -> [ k ])) in
  let r =
    Hgga.solve
      ~params:
        { Hgga.default_params with Hgga.max_generations = 40; islands = 4; migration_interval = 5 }
      obj
  in
  check Alcotest.bool "improves on identity" true (r.Hgga.cost <= identity_cost);
  let i = Objective.inputs obj in
  check Alcotest.int "plan valid" 0
    (List.length (Plan.validate ~device ~meta:i.Inputs.meta ~exec:i.Inputs.exec r.Hgga.plan))

let test_cache_probe_accounting () =
  (* Every lookup resolves as exactly one hit or one miss: probe a known
     sequence and check the ledger balances, per shard and aggregated.
     Singletons are answered straight from the measured array, so the
     ledger counts only multi-member probes. *)
  let obj = motivating_obj () in
  let groups = [ [ 0; 1 ]; [ 1; 2 ]; [ 3; 4 ]; [ 0 ]; [ 2 ] ] in
  let multi = List.filter (fun g -> List.length g >= 2) groups in
  for _ = 1 to 3 do
    List.iter (fun g -> ignore (Objective.group_cost obj g)) groups
  done;
  let agg = Objective.cache_stats obj in
  check Alcotest.int "hits + misses = probes" (3 * List.length multi)
    (agg.Objective.hits + agg.Objective.misses);
  check Alcotest.int "one miss per distinct key" (List.length multi) agg.Objective.misses;
  let shards = Objective.shard_stats obj in
  check Alcotest.int "shard count exposed" (Objective.num_shards obj) (Array.length shards);
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  check Alcotest.int "shard hits sum" agg.Objective.hits (sum (fun s -> s.Objective.hits));
  check Alcotest.int "shard misses sum" agg.Objective.misses (sum (fun s -> s.Objective.misses));
  check Alcotest.int "shard sizes sum" agg.Objective.size (sum (fun s -> s.Objective.size))

let test_cache_consistency_after_search () =
  (* Same invariant after a real multi-island, multi-domain search. *)
  let obj = clover_obj () in
  ignore
    (Hgga.solve
       ~params:
         {
           Hgga.default_params with
           Hgga.max_generations = 10;
           stall_generations = 1000;
           islands = 2;
           domains = 2;
         }
       obj);
  let agg = Objective.cache_stats obj in
  let shards = Objective.shard_stats obj in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  check Alcotest.bool "probes happened" true (agg.Objective.hits + agg.Objective.misses > 0);
  check Alcotest.int "shard hits sum" agg.Objective.hits (sum (fun s -> s.Objective.hits));
  check Alcotest.int "shard misses sum" agg.Objective.misses (sum (fun s -> s.Objective.misses));
  check Alcotest.int "shard evictions sum" agg.Objective.evictions
    (sum (fun s -> s.Objective.evictions));
  check Alcotest.int "shard sizes sum" agg.Objective.size (sum (fun s -> s.Objective.size))

let test_concurrent_duplicate_miss () =
  (* Four domains race on the same cold key.  Each evaluates it privately
     in its own table; the merge barrier collapses the duplicates, so the
     verdicts agree and one evaluation is counted once quiescent. *)
  let obj = motivating_obj () in
  let spawned =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Objective.group_cost obj [ 0; 1 ]))
  in
  let costs = List.map Domain.join spawned in
  (match costs with
  | c :: rest -> List.iter (fun c' -> check (Alcotest.float 0.) "same verdict" c c') rest
  | [] -> ());
  Objective.merge_locals obj;
  check Alcotest.int "evaluated exactly once" 1 (Objective.evaluations obj);
  (* Which domain's table answers a probe is scheduling-dependent
     telemetry; the ledger and the merged evaluation count are not. *)
  let agg = Objective.cache_stats obj in
  check Alcotest.int "ledger balances" 4 (agg.Objective.hits + agg.Objective.misses);
  check Alcotest.bool "at least one miss" true (agg.Objective.misses >= 1);
  check Alcotest.int "one merged entry" 1 agg.Objective.size;
  (* A warm re-probe from yet another domain hits the merged base. *)
  let c = Domain.join (Domain.spawn (fun () -> Objective.group_cost obj [ 0; 1 ])) in
  (match costs with c0 :: _ -> check (Alcotest.float 0.) "warm verdict" c0 c | [] -> ());
  Objective.merge_locals obj;
  check Alcotest.int "still one evaluation" 1 (Objective.evaluations obj)

let bits = Int64.bits_of_float

let test_merge_equivalence_vs_oracle () =
  (* Per-domain memo tables merged at barriers: racing and disjoint keys
     from four domains yield the oracle leaf's costs bit for bit, and one
     evaluation per distinct key at the quiescent point. *)
  let groups = [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 0; 1 ] ] in
  let inputs = inputs_of (Motivating.program ()) in
  let obj = Objective.create inputs in
  let spawned =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> List.map (fun g -> Objective.group_cost obj g) groups))
  in
  let costs = List.map Domain.join spawned in
  Objective.merge_locals obj;
  let oracle =
    List.map (fun g -> (Legacy_leaf.verdict ~model:Objective.Proposed inputs g).Objective.cost) groups
  in
  List.iter
    (List.iter2
       (fun want got -> check Alcotest.bool "bitwise-equal cost" true (bits want = bits got))
       oracle)
    costs;
  check Alcotest.int "one evaluation per distinct key" 4 (Objective.evaluations obj)

(* A guard that evaluates normally and records, under a lock, the
   distinct multi-member keys it is handed — an oracle for the
   objective's exactly-once evaluation count. *)
let block_keys (b : Objective.Block.t) =
  List.init (Objective.Block.length b) (fun i ->
      Array.sub b.keys b.offs.(i) (b.offs.(i + 1) - b.offs.(i)))

let test_seed_export_roundtrip () =
  (* The warm store's round trip: an objective seeded with another's
     export exports every seeded key back with bit-equal cost and
     original sum and the same feasibility, and seeding is no probe —
     no hit, miss or evaluation counter moves. *)
  let program = Kf_workloads.Cloverleaf.program () in
  let a = objective_of program in
  ignore (Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 10 } a);
  let src = Objective.export_block a in
  check Alcotest.bool "feasible and infeasible verdicts" true
    (Bytes.contains src.feasible '\001' && Bytes.contains src.feasible '\000');
  let b = objective_of program in
  Objective.seed_block b src;
  let back = Objective.export_block b in
  check Alcotest.int "every key back" (Objective.Block.length src) (Objective.Block.length back);
  let at = Hashtbl.create 256 in
  List.iteri (fun j k -> Hashtbl.replace at k j) (block_keys back);
  List.iteri
    (fun i k ->
      match Hashtbl.find_opt at k with
      | None -> Alcotest.fail "seeded key missing from the export"
      | Some j ->
          check Alcotest.bool "cost bits" true (bits src.cost.(i) = bits back.cost.(j));
          check Alcotest.bool "orig_sum bits" true (bits src.orig_sum.(i) = bits back.orig_sum.(j));
          check Alcotest.char "feasibility" (Bytes.get src.feasible i) (Bytes.get back.feasible j))
    (block_keys src);
  let g = Objective.cache_stats b and p = Objective.plan_cache_stats b in
  check Alcotest.(list int) "no counter moved" [ 0; 0; 0; 0; 0 ]
    [ g.Objective.hits; g.misses; p.Objective.hits; p.misses; Objective.evaluations b ]

let counting_guard () =
  let seen = Hashtbl.create 256 and lock = Mutex.create () in
  let guard eval g =
    if List.length g >= 2 then begin
      Mutex.lock lock;
      Hashtbl.replace seen g ();
      Mutex.unlock lock
    end;
    eval g
  in
  let keys () =
    Mutex.lock lock;
    let ks = Hashtbl.fold (fun g () acc -> g :: acc) seen [] in
    Mutex.unlock lock;
    List.sort compare ks
  in
  (guard, keys)

let test_exactly_once_vs_counting_guard () =
  (* At every generation barrier Objective.evaluations equals the number
     of distinct groups the guard saw, for 1 and 4 worker domains.  In a
     horizontal search multi-plane packs are evaluations too but are
     never guarded: their count is read off the exported cache (keys
     with a [-3] plane separator), whose remaining keys must be exactly
     the guarded groups. *)
  let run ~horizontal ~domains program =
    let guard, keys = counting_guard () in
    let obj = objective_of ~guard program in
    let params =
      { Hgga.default_params with Hgga.max_generations = 30; stall_generations = 1000;
        islands = 2; domains; horizontal }
    in
    let barriers = ref [] in
    let on_generation (p : Hgga.progress) =
      barriers := (p.Hgga.p_evaluations, List.length (keys ())) :: !barriers
    in
    let r = Hgga.solve ~params ~on_generation obj in
    let exported = block_keys (Objective.export_block obj) in
    let packs, groups = List.partition (Array.exists (( = ) (-3))) exported in
    let groups = List.sort compare (List.map Array.to_list groups) in
    check Alcotest.bool "exported group keys = guarded keys" true (groups = keys ());
    check Alcotest.int "evaluations = guarded groups + packs"
      (List.length (keys ()) + List.length packs)
      (Objective.evaluations obj);
    if not horizontal then
      List.iter
        (fun (evals, guarded) ->
          check Alcotest.int "evaluations = guarded groups at a barrier" guarded evals)
        !barriers
    else check Alcotest.bool "packs were evaluated" true (packs <> []);
    (r, keys ())
  in
  List.iter
    (fun (horizontal, program) ->
      let r1, k1 = run ~horizontal ~domains:1 program
      and r4, k4 = run ~horizontal ~domains:4 program in
      check Alcotest.bool "same plan" true (Plan.equal r1.Hgga.plan r4.Hgga.plan);
      check Alcotest.int "same evaluations" r1.Hgga.stats.Hgga.evaluations
        r4.Hgga.stats.Hgga.evaluations;
      check Alcotest.bool "same guarded keys" true (k1 = k4))
    [
      (false, Kf_workloads.Cloverleaf.program ());
      (true, Kf_workloads.Video.generate Kf_workloads.Video.default);
    ]


let test_plan_cache_permuted () =
  (* Permuted-but-equal plans share one plan-cache entry: the canonical
     signature normalizes away group order and member order, so the
     second evaluation is a hit with a bitwise-equal total. *)
  let obj = motivating_obj () in
  let plan = [ [ 0; 1 ]; [ 3; 4 ]; [ 2 ] ] in
  let permuted = [ [ 2 ]; [ 4; 3 ]; [ 1; 0 ] ] in
  let vpacks = List.map (fun g -> [ g ]) in
  let e1 = Objective.eval_plan obj (vpacks plan) in
  let e2 = Objective.eval_plan obj (vpacks permuted) in
  check Alcotest.bool "bitwise-equal totals" true
    (bits e1 = bits e2);
  let pc = Objective.plan_cache_stats obj in
  check Alcotest.int "one plan-cache miss" 1 pc.Objective.misses;
  check Alcotest.int "one plan-cache hit" 1 pc.Objective.hits;
  check (Alcotest.float 0.) "matches plan_cost" (Objective.plan_cost obj plan) e1

(* A plan-cache hit re-encodes the plan into the domain's arena and
   probes in place; on canonical packs it allocates nothing, on a
   14-kernel or a 142-kernel plan, vertical or horizontal.  A
   group-verdict hit (a multi-member group, already sorted) allocates
   nothing either. *)
let test_eval_plan_hit_allocation () =
  let words f =
    let before = Gc.minor_words () in
    let r = f () in
    let after = Gc.minor_words () in
    ignore (Sys.opaque_identity r);
    after -. before
  in
  let hit_words program ~horizontal =
    let obj = objective_of program in
    let n = Kf_ir.Program.num_kernels program in
    let groups = Grouping.random_plan obj (Kf_util.Rng.create 5) n in
    let rec pair = function
      | a :: b :: rest -> [ a; b ] :: pair rest
      | rest -> List.map (fun g -> [ g ]) rest
    in
    let packs =
      Plan.canonical_comps (if horizontal then pair groups else List.map (fun g -> [ g ]) groups)
    in
    ignore (Objective.eval_plan obj packs);
    ignore (Objective.eval_plan obj packs);
    let plan_words = words (fun () -> Objective.eval_plan obj packs) in
    let group = List.find (fun g -> List.length g >= 2) (Plan.canonical_groups groups) in
    ignore (Objective.group_cost obj group);
    let group_words = words (fun () -> Objective.group_feasible obj group) in
    (List.length packs, plan_words, group_words)
  in
  let clover = Kf_workloads.Cloverleaf.program () and les = Kf_workloads.Scale_les.program () in
  List.iter
    (fun (label, (packs, plan_words, group_words)) ->
      check (Alcotest.float 0.) (Printf.sprintf "%s (%d packs): plan hit words" label packs) 0.
        plan_words;
      check (Alcotest.float 0.) (Printf.sprintf "%s: group hit words" label) 0. group_words)
    [
      ("cloverleaf vertical", hit_words clover ~horizontal:false);
      ("scale-les vertical", hit_words les ~horizontal:false);
      ("cloverleaf horizontal", hit_words clover ~horizontal:true);
      ("scale-les horizontal", hit_words les ~horizontal:true);
    ]

(* A plan-cache miss whose packs are all in the group cache sums the
   packs straight off the owned plan key: it allocates the key plus a
   constant, whatever the number of packs or their kind, and builds no
   per-pack list or table.  Its total is the canonical-order sum of its
   pack verdicts, bit for bit. *)
let test_eval_plan_miss_allocation () =
  let words f =
    let before = Gc.minor_words () in
    let r = f () in
    let after = Gc.minor_words () in
    ignore (Sys.opaque_identity r);
    after -. before
  in
  let les = Kf_workloads.Scale_les.program () in
  let groups =
    Grouping.random_plan (objective_of les) (Kf_util.Rng.create 5) (Kf_ir.Program.num_kernels les)
  in
  let rec take k = function x :: tl when k > 0 -> x :: take (k - 1) tl | _ -> [] in
  let vertical = List.map (fun g -> [ g ]) groups in
  (* Pairs of independent groups pack into two-plane launches. *)
  let exec = (Objective.inputs (objective_of les)).Kf_model.Inputs.exec in
  let rec pair = function
    | [] -> []
    | a :: rest -> (
        match List.find_opt (fun b -> Plan.planes_independent ~exec [ a; b ]) rest with
        | Some b -> [ a; b ] :: pair (List.filter (fun g -> g != b) rest)
        | None -> [ a ] :: pair rest)
  in
  let miss_words label packs =
    let obj = objective_of les in
    let packs = Plan.canonical_comps packs in
    (* Warm every pack in the group cache, summing the pack costs in
       canonical order: a one-pack plan's total is its pack's cost. *)
    let expected =
      List.fold_left
        (fun acc pack ->
          acc
          +.
          match pack with
          | [ g ] -> Objective.group_cost obj g
          | planes -> Objective.eval_plan obj [ planes ])
        0. packs
    in
    (* Encoding once sizes the domain's arena for this plan. *)
    let key_len = Array.length (Objective.plan_key obj packs) in
    let group_misses = (Objective.cache_stats obj).Objective.misses in
    let plan_misses = (Objective.plan_cache_stats obj).Objective.misses in
    let total = ref 0. in
    let w = words (fun () -> total := Objective.eval_plan obj packs) in
    check Alcotest.int (label ^ ": a plan-cache miss") (plan_misses + 1)
      (Objective.plan_cache_stats obj).Objective.misses;
    check Alcotest.int (label ^ ": no group-cache miss") group_misses
      (Objective.cache_stats obj).Objective.misses;
    check Alcotest.bool (label ^ ": finite total") true (Float.is_finite !total);
    check Alcotest.bool (label ^ ": total is the canonical-order pack sum") true
      (bits !total = bits expected);
    (List.length packs, w -. float_of_int key_len)
  in
  let horizontal = pair (take 12 groups) in
  check Alcotest.bool "a multi-plane pack" true (List.exists (fun p -> List.length p >= 2) horizontal);
  let cases =
    List.map
      (fun (label, packs) -> (label, miss_words label packs))
      [ ("2 packs", take 2 vertical); ("20 packs", take 20 vertical); ("horizontal", horizontal) ]
  in
  let _, (_, base) = List.hd cases in
  List.iter
    (fun (label, (packs, extra)) ->
      check (Alcotest.float 0.)
        (Printf.sprintf "%s (%d packs): miss words beyond the key" label packs)
        base extra)
    cases

let test_incremental_full_equivalence () =
  (* The cached search against the uncached oracle
     leaf: installing the leaf as the guard changes no plan, cost,
     improvement history or evaluation count, and the result's cost is
     the oracle's canonical-order plan sum — panmictic and island
     variants. *)
  let inputs = inputs_of (Kf_workloads.Cloverleaf.program ()) in
  List.iter
    (fun (islands, migration_interval) ->
      let params =
        {
          Hgga.default_params with
          Hgga.max_generations = 30;
          stall_generations = 1000;
          islands;
          migration_interval;
        }
      in
      let ri = Hgga.solve ~params (Objective.create inputs) in
      let rf =
        Hgga.solve ~params
          (Objective.create ~guard:(Legacy_leaf.guard ~model:Objective.Proposed inputs) inputs)
      in
      check Alcotest.bool "same plan" true (Plan.equal ri.Hgga.plan rf.Hgga.plan);
      check Alcotest.bool "bitwise-equal cost" true (bits ri.Hgga.cost = bits rf.Hgga.cost);
      check Alcotest.bool "cost = oracle plan cost" true
        (bits ri.Hgga.cost
        = bits (Legacy_leaf.plan_cost ~model:Objective.Proposed inputs ri.Hgga.groups));
      let hi = ri.Hgga.stats.Hgga.improvement_history
      and hf = rf.Hgga.stats.Hgga.improvement_history in
      check Alcotest.int "same history length" (List.length hi) (List.length hf);
      check Alcotest.bool "bitwise-equal history" true
        (List.for_all2 (fun (g1, c1) (g2, c2) -> g1 = g2 && bits c1 = bits c2) hi hf);
      check Alcotest.int "same evaluation count" ri.Hgga.stats.Hgga.evaluations
        rf.Hgga.stats.Hgga.evaluations)
    [ (1, 10); (3, 5) ]

let test_hgga_at_least_greedy_quality () =
  (* On a small instance the GA should not lose badly to greedy. *)
  let obj1 = objective_of (small_suite 9) in
  let g = Greedy.solve obj1 in
  let obj2 = objective_of (small_suite 9) in
  let h = Hgga.solve ~params:{ Hgga.default_params with Hgga.max_generations = 80 } obj2 in
  check Alcotest.bool "hgga within 10% of greedy" true (h.Hgga.cost <= g.Greedy.cost *. 1.10)

let suite =
  [
    Alcotest.test_case "objective singleton cost" `Quick test_objective_singleton_cost;
    Alcotest.test_case "objective caching" `Quick test_objective_caching;
    Alcotest.test_case "objective infeasible" `Quick test_objective_infeasible;
    Alcotest.test_case "objective profitability" `Quick test_objective_profitability;
    Alcotest.test_case "objective plan cost" `Quick test_objective_plan_cost;
    Alcotest.test_case "objective models differ" `Quick test_objective_models_differ;
    Alcotest.test_case "grouping normalize" `Quick test_grouping_normalize;
    Alcotest.test_case "grouping absorbing merge" `Quick test_grouping_absorbing_merge;
    Alcotest.test_case "grouping dissolve" `Quick test_grouping_dissolve;
    Alcotest.test_case "grouping merge absorbs a condensation cycle" `Quick
      test_grouping_merge_absorbs_cycle;
    Alcotest.test_case "grouping infeasible merge keeps the state" `Quick
      test_grouping_infeasible_merge_keeps_state;
    Alcotest.test_case "grouping random plans valid" `Slow test_grouping_random_plan_valid;
    Alcotest.test_case "grouping profitability cleanup" `Quick test_grouping_enforce_profitability;
    Alcotest.test_case "hgga beats identity" `Slow test_hgga_beats_identity;
    Alcotest.test_case "hgga plan valid" `Slow test_hgga_plan_valid;
    Alcotest.test_case "hgga deterministic" `Slow test_hgga_deterministic;
    Alcotest.test_case "hgga stats" `Slow test_hgga_stats;
    Alcotest.test_case "exact small" `Quick test_exact_small;
    Alcotest.test_case "exact matches brute force" `Slow test_exact_matches_brute_force;
    Alcotest.test_case "greedy" `Slow test_greedy;
    Alcotest.test_case "random search" `Slow test_random_search;
    Alcotest.test_case "hgga vs greedy" `Slow test_hgga_at_least_greedy_quality;
    Alcotest.test_case "hgga domain invariance" `Slow test_hgga_domain_invariance;
    Alcotest.test_case "hgga island domain invariance" `Slow test_hgga_island_domain_invariance;
    Alcotest.test_case "hgga islands search" `Slow test_hgga_islands_search;
    Alcotest.test_case "cache probe accounting" `Quick test_cache_probe_accounting;
    Alcotest.test_case "cache consistency after search" `Slow test_cache_consistency_after_search;
    Alcotest.test_case "concurrent duplicate miss" `Quick test_concurrent_duplicate_miss;
    Alcotest.test_case "merge equivalence vs oracle leaf" `Quick
      test_merge_equivalence_vs_oracle;
    Alcotest.test_case "exactly-once evaluations vs counting guard" `Slow
      test_exactly_once_vs_counting_guard;
    Alcotest.test_case "plan cache permuted plans" `Quick test_plan_cache_permuted;
    Alcotest.test_case "seed_block then export_block round trip" `Quick
      test_seed_export_roundtrip;
    Alcotest.test_case "eval_plan hit allocation independent of plan size" `Quick
      test_eval_plan_hit_allocation;
    Alcotest.test_case "eval_plan miss allocation independent of plan size" `Quick
      test_eval_plan_miss_allocation;
    Alcotest.test_case "incremental vs full equivalence" `Slow test_incremental_full_equivalence;
  ]
