(* Differential tests of the allocation-free feature arena and the
   multi-device portfolio: the arena evaluation leaf must be
   bit-identical to the Fused.build-per-candidate leaf (the Legacy_leaf
   oracle, installed through the objective's guard) on every device and
   model, and a portfolio must read the search without perturbing it
   (rows built only on demand, a device-order-invariant Pareto front
   rebuilt from every evaluated plan). *)

module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Metadata = Kf_ir.Metadata
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Plan = Kf_fusion.Plan
module Measure = Kf_sim.Measure
module Inputs = Kf_model.Inputs
module Objective = Kf_search.Objective
module Grouping = Kf_search.Grouping
module Hgga = Kf_search.Hgga
module Suite = Kf_workloads.Suite
module Rng = Kf_util.Rng

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

let inputs_for ~device (p, meta, exec) =
  let measured_runtime =
    Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
  in
  Inputs.make ~device ~meta ~exec ~measured_runtime

let bits = Int64.bits_of_float
let models = [| Objective.Proposed; Objective.Roofline; Objective.Simple; Objective.Mwp |]

(* The tentpole contract: for any program, device and model, the arena
   leaf returns the same verdict bits as the legacy leaf. *)
let prop_arena_matches_legacy =
  QCheck.Test.make ~count:15
    ~name:"arena verdicts bit-identical to legacy leaf (every device, every model)"
    QCheck.small_int
    (fun seed ->
      let ctx = context_of_seed seed in
      let model = models.(seed mod Array.length models) in
      List.for_all
        (fun device ->
          let i = inputs_for ~device ctx in
          let oa = Objective.create ~model i in
          let ol = Objective.create ~model ~guard:(Legacy_leaf.guard ~model i) i in
          let p, _, _ = ctx in
          let rng = Rng.create ((seed * 17) + 1) in
          let groups = Grouping.random_plan oa rng (Program.num_kernels p) in
          List.for_all
            (fun g ->
              Objective.group_feasible oa g = Objective.group_feasible ol g
              && bits (Objective.group_cost oa g) = bits (Objective.group_cost ol g)
              && bits (Objective.original_sum oa g) = bits (Objective.original_sum ol g))
            groups
          && bits (Objective.plan_cost oa groups) = bits (Objective.plan_cost ol groups))
        Device.extended)

(* End to end: the whole GA trajectory — plan, cost, improvement history
   and evaluation count — is unchanged by the arena leaf. *)
let prop_search_identical =
  QCheck.Test.make ~count:6 ~name:"full HGGA search identical with and without the arena"
    QCheck.small_int
    (fun seed ->
      let ctx = context_of_seed seed in
      let device = List.nth Device.extended (seed mod List.length Device.extended) in
      let i = inputs_for ~device ctx in
      let params =
        { Hgga.default_params with Hgga.population_size = 24; max_generations = 40;
          stall_generations = 15; seed = seed + 1 }
      in
      let ra = Hgga.solve ~params (Objective.create i) in
      let rl =
        Hgga.solve ~params
          (Objective.create ~guard:(Legacy_leaf.guard ~model:Objective.Proposed i) i)
      in
      Plan.equal ra.Hgga.plan rl.Hgga.plan
      && bits ra.Hgga.cost = bits rl.Hgga.cost
      && ra.Hgga.stats.Hgga.evaluations = rl.Hgga.stats.Hgga.evaluations
      && ra.Hgga.stats.Hgga.improvement_history = rl.Hgga.stats.Hgga.improvement_history)

(* A portfolio must be a pure observer: primary costs keep their bits,
   device 0 of every row matches the primary verdict, and evaluation
   builds no row — there is one row per distinct multi-member group
   asked for. *)
let prop_portfolio_transparent =
  QCheck.Test.make ~count:10
    ~name:"portfolio: primary bits unchanged, row device 0 matches, rows counted once"
    QCheck.small_int
    (fun seed ->
      let ctx = context_of_seed seed in
      let i = inputs_for ~device:Device.k20x ctx in
      let extras = List.map (fun d -> inputs_for ~device:d ctx) [ Device.p100; Device.v100 ] in
      let op = Objective.create ~portfolio:extras i in
      let o = Objective.create i in
      let p, _, _ = ctx in
      let n = Program.num_kernels p in
      let rng = Rng.create (seed + 5) in
      let ok = ref true in
      let asked = Hashtbl.create 16 in
      for _ = 1 to 5 do
        let groups = Grouping.random_plan op rng n in
        if bits (Objective.plan_cost op groups) <> bits (Objective.plan_cost o groups) then
          ok := false;
        if Objective.rows_evaluated op <> Hashtbl.length asked then ok := false;
        List.iter
          (fun g ->
            if List.length g > 1 then Hashtbl.replace asked (List.sort Int.compare g) ();
            match Objective.group_row op g with
            | None -> ok := false
            | Some row ->
                if Array.length row <> Array.length (Objective.portfolio_devices op) then
                  ok := false;
                if bits row.(0) <> bits (Objective.group_cost op g) then ok := false)
          groups
      done;
      !ok
      && Objective.rows_evaluated op = Hashtbl.length asked
      && Objective.group_row o [ 0 ] = None)

(* The front is rebuilt from the plan table on every call: after more
   plans are evaluated, a second call equals a brute-force
   non-dominated filter, summed from [group_row], over every plan
   evaluated so far. *)
let prop_front_recomputed =
  QCheck.Test.make ~count:6 ~name:"Pareto front recomputed over every evaluated plan"
    QCheck.small_int
    (fun seed ->
      let ctx = context_of_seed seed in
      let i = inputs_for ~device:Device.k20x ctx in
      let extras = List.map (fun d -> inputs_for ~device:d ctx) [ Device.k40; Device.v100 ] in
      let o = Objective.create ~portfolio:extras i in
      let p, _, _ = ctx in
      let n = Program.num_kernels p in
      let rng = Rng.create (seed + 41) in
      let evaluated = ref [] in
      let evaluate count =
        for _ = 1 to count do
          let groups = Plan.canonical_groups (Grouping.random_plan o rng n) in
          ignore (Objective.plan_cost o groups);
          evaluated := groups :: !evaluated
        done
      in
      evaluate 4;
      ignore (Objective.pareto_front o);
      evaluate 8;
      let front = Objective.pareto_front o in
      let ndev = Array.length (Objective.portfolio_devices o) in
      let costs groups =
        List.fold_left
          (fun acc g ->
            match Objective.group_row o g with
            | Some row -> Array.mapi (fun d c -> c +. row.(d)) acc
            | None -> acc)
          (Array.make ndev 0.) groups
      in
      let plans =
        List.sort_uniq compare
          (List.map
             (fun g -> (Objective.plan_key o (List.map (fun g -> [ g ]) g), g))
             !evaluated)
        |> List.map (fun (key, g) -> (key, g, costs g))
      in
      let dominates a b =
        Array.for_all2 ( <= ) a b && Array.exists2 ( < ) a b
      in
      let want =
        List.filter
          (fun (key, _, c) ->
            not
              (List.exists
                 (fun (key', _, c') -> dominates c' c || (c' = c && compare key' key < 0))
                 plans))
          plans
        |> List.sort (fun (k, _, c) (k', _, c') ->
               let o = compare c c' in
               if o <> 0 then o else compare k k')
        |> List.map (fun (_, g, c) -> (g, Array.map bits c))
      in
      want = List.map (fun e -> (e.Objective.pf_plan, Array.map bits e.Objective.pf_costs)) front)

(* The Pareto front is a function of the set of plans evaluated, not of
   the order the portfolio devices were configured in: reversing the
   portfolio must yield the same front modulo per-device reindexing. *)
let prop_pareto_order_invariant =
  QCheck.Test.make ~count:8 ~name:"Pareto front invariant under portfolio device order"
    QCheck.small_int
    (fun seed ->
      let ctx = context_of_seed seed in
      let i = inputs_for ~device:Device.k20x ctx in
      let e1 = List.map (fun d -> inputs_for ~device:d ctx) [ Device.k40; Device.p100; Device.v100 ] in
      let o1 = Objective.create ~portfolio:e1 i in
      let o2 = Objective.create ~portfolio:(List.rev e1) i in
      let p, _, _ = ctx in
      let n = Program.num_kernels p in
      let rng = Rng.create (seed + 23) in
      for _ = 1 to 8 do
        let groups = Grouping.random_plan o1 rng n in
        ignore (Objective.plan_cost o1 groups);
        ignore (Objective.plan_cost o2 groups)
      done;
      (* Rebase each entry's cost vector on device names so the two
         orderings become comparable, then compare the fronts as sets. *)
      let key o =
        let devs = Array.map (fun d -> d.Device.name) (Objective.portfolio_devices o) in
        List.map
          (fun e ->
            let by_name =
              Array.to_list (Array.mapi (fun d c -> (devs.(d), bits c)) e.Objective.pf_costs)
            in
            (e.Objective.pf_plan, List.sort compare by_name))
          (Objective.pareto_front o)
        |> List.sort compare
      in
      key o1 = key o2)

(* The extended device table: P100 and V100 present, names round-trip
   through the case-insensitive lookup, unknown names are rejected. *)
let test_device_table () =
  Alcotest.(check bool)
    "p100 in extended" true
    (List.exists (Device.equal Device.p100) Device.extended);
  Alcotest.(check bool)
    "v100 in extended" true
    (List.exists (Device.equal Device.v100) Device.extended);
  List.iter
    (fun d ->
      (match Device.of_name d.Device.name with
      | Some d' ->
          Alcotest.(check bool) (d.Device.name ^ " round-trips") true (Device.equal d d')
      | None -> Alcotest.fail (d.Device.name ^ " not found by of_name"));
      match Device.of_name (String.lowercase_ascii d.Device.name) with
      | Some d' ->
          Alcotest.(check bool)
            (d.Device.name ^ " lookup is case-insensitive")
            true (Device.equal d d')
      | None -> Alcotest.fail (d.Device.name ^ " lowercase lookup failed"))
    Device.extended;
  Alcotest.(check bool) "unknown name rejected" true (Device.of_name "tpu" = None)

(* The alloc_per_eval gauge: with metrics enabled both leaves record
   samples, and the arena leaf allocates at most a quarter of what the
   legacy Fused.build-per-candidate leaf does. *)
let test_alloc_gauge () =
  let ctx = context_of_seed 3 in
  let i = inputs_for ~device:Device.k20x ctx in
  let oa = Objective.create i in
  let ol = Objective.create ~guard:(Legacy_leaf.guard ~model:Objective.Proposed i) i in
  let p, _, _ = ctx in
  let n = Program.num_kernels p in
  Kf_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Kf_obs.Metrics.set_enabled false)
    (fun () ->
      let rng = Rng.create 42 in
      for _ = 1 to 10 do
        let groups = Grouping.random_plan oa rng n in
        ignore (Objective.plan_cost oa groups);
        ignore (Objective.plan_cost ol groups)
      done);
  let aa = Objective.alloc_per_eval oa and al = Objective.alloc_per_eval ol in
  Alcotest.(check bool) "arena leaf records samples" true (aa > 0.);
  Alcotest.(check bool) "legacy leaf records samples" true (al > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "arena allocates <= 25%% of legacy (%.0f vs %.0f words/eval)" aa al)
    true (aa <= 0.25 *. al)

(* Whole searches on CloverLeaf: the oracle leaf's search is the arena's,
   and over a five-device portfolio the primary result is the plain
   search's, bit for bit, with a front and rows kept. *)
let test_solve_portfolio () =
  let p = Kf_workloads.Cloverleaf.program () in
  let ctx = (p, Metadata.build p, Exec_order.build (Datadep.build p)) in
  let i = inputs_for ~device:Device.k20x ctx in
  let extras =
    List.map (fun device -> inputs_for ~device ctx)
      [ Device.k40; Device.gtx750ti; Device.p100; Device.v100 ]
  in
  let params =
    { Hgga.default_params with Hgga.population_size = 100; max_generations = 300;
      stall_generations = 300 }
  in
  let r = Hgga.solve ~params (Objective.create i) in
  let rl =
    Hgga.solve ~params (Objective.create ~guard:(Legacy_leaf.guard ~model:Objective.Proposed i) i)
  in
  Alcotest.(check bool) "oracle leaf: same plan, cost bits, history, evaluations" true
    (Plan.equal r.Hgga.plan rl.Hgga.plan
    && bits r.Hgga.cost = bits rl.Hgga.cost
    && r.Hgga.stats.Hgga.improvement_history = rl.Hgga.stats.Hgga.improvement_history
    && r.Hgga.stats.Hgga.evaluations = rl.Hgga.stats.Hgga.evaluations);
  let op = Objective.create ~portfolio:extras i in
  let rp = Hgga.solve_portfolio ~params op in
  let primary = rp.Hgga.primary in
  Alcotest.(check bool) "same plan" true (Plan.equal r.Hgga.plan primary.Hgga.plan);
  Alcotest.(check bool) "same cost bits" true (bits r.Hgga.cost = bits primary.Hgga.cost);
  Alcotest.(check int) "same evaluations" r.Hgga.stats.Hgga.evaluations
    primary.Hgga.stats.Hgga.evaluations;
  Alcotest.(check bool) "non-empty front" true (rp.Hgga.front <> []);
  Alcotest.(check bool) "rows evaluated" true (Objective.rows_evaluated op > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_arena_matches_legacy;
      prop_search_identical;
      prop_portfolio_transparent;
      prop_front_recomputed;
      prop_pareto_order_invariant;
    ]
  @ [
      Alcotest.test_case "extended device table" `Quick test_device_table;
      Alcotest.test_case "alloc_per_eval gauge" `Quick test_alloc_gauge;
      Alcotest.test_case "cloverleaf: oracle leaf and portfolio searches" `Slow
        test_solve_portfolio;
    ]
