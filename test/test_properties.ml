(* Cross-cutting property tests: invariants of fusion, measurement and
   search over randomly generated test-suite programs. *)

module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Metadata = Kf_ir.Metadata
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Traffic = Kf_graph.Traffic
module Fused = Kf_fusion.Fused
module Plan = Kf_fusion.Plan
module Measure = Kf_sim.Measure
module Inputs = Kf_model.Inputs
module Objective = Kf_search.Objective
module Grouping = Kf_search.Grouping
module Suite = Kf_workloads.Suite
module Rng = Kf_util.Rng

let device = Device.k20x

(* Random small program + context, derived deterministically from a seed. *)
let context_of_seed seed =
  let p =
    Suite.generate
      { Suite.default with Suite.kernels = 8 + (seed mod 7); arrays = 20 + (seed mod 11);
        thread_load = 4 + (4 * (seed mod 3)); seed }
  in
  let meta = Metadata.build p in
  let exec = Exec_order.build (Datadep.build p) in
  (p, meta, exec)

(* A random feasible group drawn via the search's own sampler. *)
let random_feasible_group seed =
  let p, meta, exec = context_of_seed seed in
  let measured_runtime =
    Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
  in
  let obj = Objective.create (Inputs.make ~device ~meta ~exec ~measured_runtime) in
  let rng = Rng.create (seed * 31) in
  let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
  let multi = List.filter (fun g -> List.length g >= 2) groups in
  match multi with
  | [] -> None
  | l -> Some (p, meta, exec, obj, List.nth l (Rng.int rng (List.length l)))

let prop_fused_registers_dominate_members =
  QCheck.Test.make ~count:60 ~name:"fused kernel needs at least the heaviest member's registers"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let max_member =
            List.fold_left
              (fun acc k -> max acc (Program.kernel p k).Kernel.registers_per_thread)
              0 g
          in
          f.Fused.registers_per_thread >= max_member)

let prop_fused_traffic_at_most_members =
  QCheck.Test.make ~count:60 ~name:"fusion never increases GMEM footprint traffic"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let members = List.fold_left (fun acc k -> acc +. Traffic.kernel_bytes p k) 0. g in
          (* Halo rings can add a little traffic on top of the footprint
             accounting, so allow a small margin. *)
          Fused.gmem_bytes p f <= members *. 1.05)

let prop_fused_flops_at_least_members =
  QCheck.Test.make ~count:60 ~name:"fusion never loses flops (halo only adds)"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let members =
            List.fold_left
              (fun acc k -> acc +. Kernel.total_flops (Program.kernel p k) p.Program.grid)
              0. g
          in
          Fused.total_flops p f >= members -. 1e-6)

let prop_fused_segments_cover_members =
  QCheck.Test.make ~count:60 ~name:"segments enumerate exactly the members, in order"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (_, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          List.map (fun s -> s.Fused.kernel) f.Fused.segments = f.Fused.members
          && List.sort compare f.Fused.members = List.sort compare g)

let prop_random_plans_fully_valid =
  QCheck.Test.make ~count:40 ~name:"random plans satisfy every Fig. 4 constraint"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, obj, _) ->
          let rng = Rng.create (seed + 999) in
          let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
          let plan = Plan.of_groups ~n:(Program.num_kernels p) groups in
          Plan.validate ~device ~meta ~exec plan = [])

let prop_local_refine_never_worsens =
  QCheck.Test.make ~count:25 ~name:"local refinement never raises the plan cost"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, _, _, obj, _) ->
          let rng = Rng.create (seed + 7) in
          let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
          let before = Objective.plan_cost obj groups in
          let after = Objective.plan_cost obj (Grouping.local_refine obj groups) in
          after <= before +. 1e-12)

let prop_measured_fused_positive =
  QCheck.Test.make ~count:30 ~name:"every feasible fusion simulates to a positive finite runtime"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let r = Measure.fused ~device p f in
          Float.is_finite r.Measure.runtime_s && r.Measure.runtime_s > 0.)

let prop_projection_below_roofline_performance =
  QCheck.Test.make ~count:30
    ~name:"proposed projection never predicts above-Roofline performance"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, obj, g) ->
          ignore p;
          let i = Objective.inputs obj in
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let proposed = Kf_model.Projection.runtime i f in
          let roofline = Kf_model.Roofline.runtime i f in
          (* Runtime bound: the proposed model is at least as pessimistic
             as Roofline (which ignores all resource pressure and uses the
             theoretical bandwidth). *)
          (not (Float.is_finite proposed)) || proposed >= roofline *. 0.999)

let prop_plan_cost_additive =
  QCheck.Test.make ~count:25 ~name:"plan cost is the sum of group costs"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, _, _, obj, _) ->
          let rng = Rng.create (seed + 3) in
          let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
          let total = Objective.plan_cost obj groups in
          let sum = List.fold_left (fun acc g -> acc +. Objective.group_cost obj g) 0. groups in
          Float.abs (total -. sum) < 1e-12)

let prop_incremental_matches_full =
  QCheck.Test.make ~count:20
    ~name:"incremental plan cost is bitwise-identical to full evaluation under mutation"
    QCheck.small_int
    (fun seed ->
      let p, meta, exec = context_of_seed seed in
      let measured_runtime =
        Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
      in
      let inputs = Inputs.make ~device ~meta ~exec ~measured_runtime in
      let obj_inc = Objective.create inputs in
      let n = Program.num_kernels p in
      let rng = Rng.create (seed + 11) in
      let groups = ref (Grouping.random_plan obj_inc rng n) in
      let agree = ref true in
      (* Walk a random mutation sequence with the search's own operators,
         checking the cached plan cost against the uncached
         per-candidate oracle bit-for-bit at every step. *)
      for _ = 1 to 10 do
        let ci = Objective.plan_cost obj_inc !groups in
        let cf = Legacy_leaf.plan_cost ~model:Objective.Proposed inputs !groups in
        if Int64.bits_of_float ci <> Int64.bits_of_float cf then agree := false;
        let gs = !groups in
        (match Rng.int rng 3 with
        | 0 -> (
            match List.filter (fun g -> List.length g >= 2) gs with
            | [] -> ()
            | multi ->
                groups := Grouping.dissolve gs (List.nth multi (Rng.int rng (List.length multi))))
        | 1 -> (
            match Grouping.eject obj_inc gs (Rng.int rng n) with
            | Some gs' -> groups := gs'
            | None -> ())
        | _ -> (
            let g = List.nth gs (Rng.int rng (List.length gs)) in
            match Grouping.absorbing_merge obj_inc gs g with
            | Some (g', rest) -> groups := g' :: rest
            | None -> ()));
        groups := Plan.canonical_groups !groups
      done;
      !agree)

(* The structural memos are result-invisible: every memoized [Grouping]
   operator returns exactly what its unmemoized counterpart in
   [Legacy_grouping] returns — on the first call (a memo miss), on a
   repeat (a hit), and with the partition's groups permuted (a
   canonical-key hit for the merge).  Partitions are one random feasible
   plan plus arbitrary bucketings, which are mostly non-convex and
   unschedulable, so closure, cycle absorption and repair all run. *)
let prop_struct_memos_match_unmemoized =
  QCheck.Test.make ~count:30 ~name:"structural memos return what the unmemoized operators do"
    QCheck.small_int
    (fun seed ->
      let p, meta, exec = context_of_seed seed in
      let measured_runtime =
        Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
      in
      let obj = Objective.create (Inputs.make ~device ~meta ~exec ~measured_runtime) in
      let n = Program.num_kernels p in
      let rng = Rng.create ((seed * 17) + 5) in
      let bucketing () =
        let b = Array.make (max 1 (n / 3)) [] in
        for k = n - 1 downto 0 do
          let i = Rng.int rng (Array.length b) in
          b.(i) <- k :: b.(i)
        done;
        List.filter (( <> ) []) (Array.to_list b)
      in
      let permuted groups =
        let a = Array.of_list groups in
        Rng.shuffle rng a;
        Array.to_list a
      in
      (* [memo] runs twice: a miss (or an earlier case's entry), then a hit. *)
      let agrees raw memo = raw = memo () && raw = memo () in
      List.for_all
        (fun groups ->
          let arr = Array.of_list groups in
          let a = Rng.choose rng arr and b = Rng.choose rng arr in
          let shuffled = permuted groups in
          agrees (Legacy_grouping.schedulable obj groups) (fun () -> Grouping.schedulable obj groups)
          && agrees (Legacy_grouping.repair_schedule obj groups) (fun () ->
                 Grouping.repair_schedule obj groups)
          && List.for_all
               (fun g ->
                 agrees (Legacy_grouping.kin_adjacent_groups obj groups g) (fun () ->
                     Grouping.kin_adjacent_groups obj groups g))
               groups
          && agrees (Legacy_grouping.absorbing_merge obj groups a) (fun () ->
                 Grouping.absorbing_merge obj groups a)
          && (a = b
             || agrees (Legacy_grouping.merge_pair obj groups a b) (fun () ->
                    Grouping.merge_pair obj groups a b)
                && agrees (Legacy_grouping.merge_pair obj shuffled a b) (fun () ->
                       Grouping.merge_pair obj shuffled a b))
          && agrees (Legacy_grouping.local_refine obj groups) (fun () ->
                 Grouping.local_refine obj groups))
        [ Grouping.random_plan obj rng n; bucketing (); bucketing () ])

let objective_of_seed seed =
  let p, meta, exec = context_of_seed seed in
  let measured_runtime =
    Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
  in
  (Objective.create (Inputs.make ~device ~meta ~exec ~measured_runtime), Program.num_kernels p)

(* Random plan construction chains many merges on one partition state;
   every RNG draw must still see the candidate lists and merge outcomes
   the list operators produce, so the plans are equal draw for draw. *)
let prop_random_plan_matches_list_oracle =
  QCheck.Test.make ~count:30 ~name:"random plans equal the list-based oracle's"
    QCheck.small_int
    (fun seed ->
      let obj, n = objective_of_seed seed in
      List.for_all
        (fun (rseed, merge_attempts) ->
          Grouping.random_plan obj (Rng.create rseed) ?merge_attempts n
          = Legacy_grouping.random_plan obj (Rng.create rseed) ?merge_attempts n)
        [ (seed, None); ((seed * 7) + 1, None); ((seed * 7) + 2, Some (4 * n)) ])

(* A random walk of merges, ejects and dissolves on one partition state,
   mirrored on lists by the oracle: after every step the state lists the
   same groups in the same order with the same schedulability, and every
   merge has the same outcome.  Walks start from a random plan or from a
   bucketing (mostly non-convex and unschedulable, so merges absorb
   condensation cycles). *)
let prop_partition_walk_matches_list_oracle =
  QCheck.Test.make ~count:25 ~name:"partition state walk matches the list operators"
    QCheck.small_int
    (fun seed ->
      let obj, n = objective_of_seed seed in
      let rng = Rng.create ((seed * 13) + 3) in
      let start =
        if seed mod 2 = 0 then Grouping.random_plan obj rng n
        else begin
          let b = Array.make (max 1 (n / 3)) [] in
          for k = n - 1 downto 0 do
            let i = Rng.int rng (Array.length b) in
            b.(i) <- k :: b.(i)
          done;
          List.filter (( <> ) []) (Array.to_list b)
        end
      in
      let module P = Grouping.Partition in
      let st = P.of_groups obj start in
      let lists = ref start and ok = ref true and steps = ref 0 in
      while !ok && !steps < 40 do
        incr steps;
        let gs = !lists in
        let len = List.length gs in
        (match Rng.int rng 3 with
        | 0 -> (
            let a = List.nth gs (Rng.int rng len) in
            let b =
              match Legacy_grouping.kin_adjacent_groups obj gs a with
              | [] -> List.nth gs (Rng.int rng len)
              | c -> List.nth c (Rng.int rng (List.length c))
            in
            let ids = [ P.group_of st (List.hd a); P.group_of st (List.hd b) ] in
            match (Legacy_grouping.merge_pair obj gs a b, (P.merge st ids).Objective.feasible) with
            | None, false -> ()
            | Some (merged, rest), true ->
                ok := merged = P.merged_group st;
                P.commit st;
                lists := merged :: rest
            | _ -> ok := false)
        | 1 -> (
            let k = Rng.int rng n in
            match (Legacy_grouping.eject obj gs k, P.eject st k) with
            | None, false -> ()
            | Some gs', true -> lists := gs'
            | _ -> ok := false)
        | _ ->
            let i = Rng.int rng len in
            lists := Legacy_grouping.dissolve gs (List.nth gs i);
            P.dissolve st (P.nth st i));
        ok :=
          !ok
          && P.to_groups st = !lists
          && P.acyclic st = Legacy_grouping.schedulable obj !lists
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fused_registers_dominate_members;
      prop_fused_traffic_at_most_members;
      prop_fused_flops_at_least_members;
      prop_fused_segments_cover_members;
      prop_random_plans_fully_valid;
      prop_local_refine_never_worsens;
      prop_measured_fused_positive;
      prop_projection_below_roofline_performance;
      prop_plan_cost_additive;
      prop_incremental_matches_full;
      prop_struct_memos_match_unmemoized;
      prop_random_plan_matches_list_oracle;
      prop_partition_walk_matches_list_oracle;
    ]
