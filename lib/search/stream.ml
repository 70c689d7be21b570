(* Streaming fusion: warm-start plan repair over an evolving program.

   The invariants that keep this sound:

   - Kernel identity across versions is *content*, not position:
     [Program.restrict] renumbers ids, so matching goes through full
     metadata fingerprints and an LCS (order-preserving, like the
     invocation sequence itself).
   - Nothing verdict-shaped crosses a version boundary.  Convexity
     (Eq. 1.3) is a property of the whole order-of-execution graph, so a
     cached verdict from version v is not valid evidence in version v+1
     even for an untouched group.  Reuse is plan-shaped: the previous
     best plan, mapped and repaired, seeds the next search's population
     and every verdict is recomputed under the new objective (where the
     signature caches make the unchanged groups one shared fill).
   - Evaluation accounting never double-counts: each decision gets a
     fresh objective whose counter starts at zero, seeds go through it
     like any individual, and cumulative totals are summed here — the
     snapshot-resume counter seeding ([Objective.add_evaluations]) is
     never used on this path. *)

module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Access = Kf_ir.Access
module Array_info = Kf_ir.Array_info
module Stencil = Kf_ir.Stencil

type env = Program.t -> Objective.t

type rung = Full_search | Repair_search | Greedy_repair

let rung_name = function
  | Full_search -> "full-search"
  | Repair_search -> "repair-search"
  | Greedy_repair -> "greedy-repair"

type config = {
  params : Hgga.params;
  repair : Hgga.params;
  slo_s : float option;
  min_search_s : float;
}

let config_of_params p =
  {
    params = p;
    repair =
      {
        p with
        Hgga.population_size = max 4 (p.Hgga.population_size / 2);
        max_generations = max 50 (p.Hgga.max_generations / 2);
        stall_generations = max 10 (p.Hgga.stall_generations / 2);
      };
    slo_s = None;
    min_search_s = 0.010;
  }

let default_config = config_of_params Hgga.default_params

(* ------------------------------------------------------------------ *)
(* Content fingerprints and the diff                                   *)

(* Everything the models read about a kernel, with arrays identified by
   their content (name, element size, extent) rather than their id —
   ids are renumbered by [Program.restrict] and must not matter.  [%h]
   prints floats exactly (hex), so fingerprints never collide through
   decimal rounding. *)
let fingerprint p ki =
  let k = Program.kernel p ki in
  let b = Buffer.create 128 in
  Printf.bprintf b "%s|%h|%d|%d|%h" k.Kernel.name k.Kernel.extra_flops_per_site
    k.Kernel.registers_per_thread k.Kernel.addr_registers k.Kernel.active_fraction;
  List.iter
    (fun (a : Access.t) ->
      let ai = Program.array p a.array in
      Printf.bprintf b ";%s|%d|%s|%s|%h" ai.Array_info.name ai.Array_info.elem_bytes
        (match ai.Array_info.extent with Array_info.Field3d -> "3d" | Array_info.Plane2d -> "2d")
        (Access.mode_to_string a.mode) a.flops;
      List.iter
        (fun (o : Stencil.offset) -> Printf.bprintf b ",%d:%d:%d" o.di o.dj o.dk)
        (Stencil.offsets a.pattern))
    k.Kernel.accesses;
  Buffer.contents b

let fingerprints p = Array.init (Program.num_kernels p) (fingerprint p)

type delta = {
  matched : (int * int) list;
  removed : int list;
  added : int list;
}

(* Classic O(n*m) LCS over the fingerprint sequences; n is a kernel
   count (tens), so quadratic is nothing. *)
let lcs a b =
  let n = Array.length a and m = Array.length b in
  let dp = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      dp.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + dp.(i + 1).(j + 1)
         else max dp.(i + 1).(j) dp.(i).(j + 1))
    done
  done;
  let rec go i j acc =
    if i >= n || j >= m then List.rev acc
    else if String.equal a.(i) b.(j) then go (i + 1) (j + 1) ((i, j) :: acc)
    else if dp.(i + 1).(j) >= dp.(i).(j + 1) then go (i + 1) j acc
    else go i (j + 1) acc
  in
  go 0 0 []

let delta_of_prints a b =
  let matched = lcs a b in
  let old_hit = Array.make (Array.length a) false in
  let new_hit = Array.make (Array.length b) false in
  List.iter
    (fun (i, j) ->
      old_hit.(i) <- true;
      new_hit.(j) <- true)
    matched;
  let unmatched hit =
    let acc = ref [] in
    for i = Array.length hit - 1 downto 0 do
      if not hit.(i) then acc := i :: !acc
    done;
    !acc
  in
  { matched; removed = unmatched old_hit; added = unmatched new_hit }

let diff oldp newp = delta_of_prints (fingerprints oldp) (fingerprints newp)

(* ------------------------------------------------------------------ *)
(* Warm plan: map the previous best through the delta and repair       *)

let warm_plan obj (d : delta) ~prev ~n =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (o, nw) -> Hashtbl.replace tbl o nw) d.matched;
  let seen = Array.make n false in
  let reused = ref 0 in
  let mapped =
    List.concat_map
      (fun g ->
        let g' =
          List.sort compare (List.filter_map (fun k -> Hashtbl.find_opt tbl k) g)
        in
        List.iter (fun k -> seen.(k) <- true) g';
        match g' with
        | [] -> []
        | [ _ ] -> [ g' ]
        | _ ->
            if Objective.group_feasible obj g' then begin
              if List.length g' = List.length g then incr reused;
              [ g' ]
            end
            else
              (* the edit invalidated this group: dissolve, and let the
                 search (or the greedy pass) regroup the pieces *)
              List.map (fun k -> [ k ]) g')
      prev
  in
  let arrivals = ref [] in
  for k = n - 1 downto 0 do
    if not seen.(k) then arrivals := [ k ] :: !arrivals
  done;
  let plan = Grouping.repair_schedule obj (mapped @ !arrivals) in
  (Kf_fusion.Plan.canonical_groups plan, !reused)

(* ------------------------------------------------------------------ *)
(* The stream                                                          *)

type decision = {
  d_version : int;
  d_rung : rung;
  d_groups : Grouping.groups;
  d_cost : float;
  d_stop : Hgga.stop_reason;
  d_evaluations : int;
  d_wall_s : float;
  d_changed : int;
  d_reused_groups : int;
  d_slo_tripped : bool;
  d_total_evaluations : int;
  d_total_wall_s : float;
}

type t = {
  env : env;
  config : config;
  mutable version : int;
  mutable cur_program : Program.t;
  mutable prints : string array;
  mutable best : Grouping.groups;
  mutable sum_evaluations : int;
  mutable sum_wall_s : float;
  mutable history : decision list;  (* newest first *)
}

let now () = Unix.gettimeofday ()

(* Remaining wall budget under the SLO, measured from the decision's
   entry point [t0] (so the objective build already counts against the
   deadline).  [None] budget means "too tight to search". *)
let slo_budget config ~t0 =
  match config.slo_s with
  | None -> Some Hgga.unlimited
  | Some s ->
      let remaining = s -. (now () -. t0) in
      if remaining < config.min_search_s then None
      else Some { Hgga.unlimited with Hgga.max_wall_s = Some remaining }

let finish t ~t0 ~version ~rung ~groups ~cost ~stop ~evals ~changed ~reused ~slo_tripped =
  let wall = now () -. t0 in
  t.sum_evaluations <- t.sum_evaluations + evals;
  t.sum_wall_s <- t.sum_wall_s +. wall;
  let d =
    {
      d_version = version;
      d_rung = rung;
      d_groups = groups;
      d_cost = cost;
      d_stop = stop;
      d_evaluations = evals;
      d_wall_s = wall;
      d_changed = changed;
      d_reused_groups = reused;
      d_slo_tripped = slo_tripped;
      d_total_evaluations = t.sum_evaluations;
      d_total_wall_s = t.sum_wall_s;
    }
  in
  t.best <- groups;
  t.history <- d :: t.history;
  d

let create ?(config = default_config) env program =
  let t0 = now () in
  let obj = env program in
  (* Version 0 has nothing to repair: always search, with the SLO (if
     any) as a wall budget — a too-tight deadline still gets at least
     [min_search_s] of GA rather than a plan pulled from thin air. *)
  let budget =
    match slo_budget config ~t0 with
    | Some b -> b
    | None -> { Hgga.unlimited with Hgga.max_wall_s = Some config.min_search_s }
  in
  let r = Hgga.solve ~params:config.params ~budget obj in
  let t =
    {
      env;
      config;
      version = 0;
      cur_program = program;
      prints = fingerprints program;
      best = r.Hgga.groups;
      sum_evaluations = 0;
      sum_wall_s = 0.;
      history = [];
    }
  in
  ignore
    (finish t ~t0 ~version:0 ~rung:Full_search ~groups:r.Hgga.groups ~cost:r.Hgga.cost
       ~stop:r.Hgga.stats.Hgga.stop
       ~evals:(Objective.evaluations obj)
       ~changed:(Program.num_kernels program)
       ~reused:0
       ~slo_tripped:(r.Hgga.stats.Hgga.stop = Hgga.Wall_budget));
  t

let step t program =
  let t0 = now () in
  let version = t.version + 1 in
  let obj = t.env program in
  let n = Program.num_kernels program in
  let prints = fingerprints program in
  let d = delta_of_prints t.prints prints in
  let changed = List.length d.added + List.length d.removed in
  let warm, reused = warm_plan obj d ~prev:t.best ~n in
  (* One deterministic hill-climbing pass over the warm plan: the
     greedy-rung answer, and a second (often better) seed for the GA. *)
  let refined = Kf_fusion.Plan.canonical_groups (Grouping.local_refine ~max_passes:1 obj warm) in
  let rung, groups, cost, stop, slo_tripped =
    match slo_budget t.config ~t0 with
    | None ->
        let g = Kf_fusion.Plan.canonical_groups (Grouping.enforce_profitability obj refined) in
        (Greedy_repair, g, Objective.plan_cost obj g, Hgga.Converged, true)
    | Some budget ->
        let params = { t.config.repair with Hgga.seed = t.config.params.Hgga.seed + version } in
        let seeds = if refined = warm then [ warm ] else [ warm; refined ] in
        let r = Hgga.solve ~params ~budget ~seed_plans:seeds obj in
        ( Repair_search,
          r.Hgga.groups,
          r.Hgga.cost,
          r.Hgga.stats.Hgga.stop,
          r.Hgga.stats.Hgga.stop = Hgga.Wall_budget )
  in
  t.version <- version;
  t.cur_program <- program;
  t.prints <- prints;
  finish t ~t0 ~version ~rung ~groups ~cost ~stop
    ~evals:(Objective.evaluations obj)
    ~changed ~reused ~slo_tripped

let last t =
  match t.history with
  | d :: _ -> d
  | [] -> invalid_arg "Stream.last: no decisions"  (* unreachable: create decides v0 *)

let decisions t = List.rev t.history
let program t = t.cur_program
let version t = t.version
let total_evaluations t = t.sum_evaluations
let total_wall_s t = t.sum_wall_s
