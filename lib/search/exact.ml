module Inputs = Kf_model.Inputs
module Program = Kf_ir.Program
module Metadata = Kf_ir.Metadata
module Exec_order = Kf_graph.Exec_order
module Dag = Kf_graph.Dag
module Bitset = Kf_util.Bitset

type result = {
  groups : Grouping.groups;
  plan : Kf_fusion.Plan.t;
  cost : float;
  feasible_groups : int;
  dp_states : int;
}

let mask_of_list l = List.fold_left (fun m k -> m lor (1 lsl k)) 0 l

(* Enumerate all path-convex, kinship-connected subsets up to the size
   bound: grow from singletons by kin neighbors, closing under the path
   constraint after each addition, deduplicating by bitmask. *)
let enumerate_closed_subsets obj ~max_group_size n =
  let i = Objective.inputs obj in
  let meta = i.Inputs.meta in
  let dag = Exec_order.dag i.Inputs.exec in
  let seen = Hashtbl.create 4096 in
  let out = ref [] in
  let queue = Queue.create () in
  let push members =
    let mask = mask_of_list members in
    if (not (Hashtbl.mem seen mask)) && List.length members <= max_group_size then begin
      Hashtbl.replace seen mask ();
      out := members :: !out;
      Queue.add members queue
    end
  in
  for k = 0 to n - 1 do
    push [ k ]
  done;
  while not (Queue.is_empty queue) do
    let members = Queue.pop queue in
    let neighbors =
      List.concat_map (fun k -> Metadata.kin_neighbors meta k) members
      |> List.sort_uniq compare
      |> List.filter (fun k -> not (List.mem k members))
    in
    List.iter
      (fun x ->
        let closed = Dag.path_closure dag (Bitset.of_list n (x :: members)) in
        push (Bitset.to_list closed))
      neighbors
  done;
  !out

let solve ?(max_group_size = 8) obj =
  let i = Objective.inputs obj in
  let n = Program.num_kernels i.Inputs.program in
  if n > 62 then invalid_arg "Exact.solve: more than 62 kernels";
  let dag = Exec_order.dag i.Inputs.exec in
  let subsets = enumerate_closed_subsets obj ~max_group_size n in
  let feasible =
    List.filter_map
      (fun g ->
        if Objective.group_feasible obj g then begin
          let c = Objective.group_cost obj g in
          if Float.is_finite c then begin
            (* Direct predecessors outside the group: they must already be
               scheduled when the group runs. *)
            let preds =
              List.fold_left
                (fun acc k -> List.fold_left (fun acc p -> acc lor (1 lsl p)) acc (Dag.preds dag k))
                0 g
            in
            let mask = mask_of_list g in
            Some (mask, preds land lnot mask, g, c)
          end
          else None
        end
        else None)
      subsets
  in
  (* Minimum-cost completion by DP over scheduled prefixes (down-sets of
     the DAG): a group is schedulable next iff its external direct
     predecessors are all in the prefix.  This enumerates exactly the
     partitions whose condensation is acyclic — per-group convexity alone
     is not enough (two convex groups can mutually depend through
     different members). *)
  let feasible = Array.of_list feasible in
  let full = (1 lsl n) - 1 in
  let memo : (int, float * (int * int list) option) Hashtbl.t = Hashtbl.create 8192 in
  let rec dp scheduled =
    if scheduled = full then (0., None)
    else begin
      match Hashtbl.find_opt memo scheduled with
      | Some r -> r
      | None ->
          let best = ref (Float.infinity, None) in
          Array.iter
            (fun (mask, ext_preds, g, c) ->
              if mask land scheduled = 0 && ext_preds land lnot scheduled = 0 then begin
                let sub, _ = dp (scheduled lor mask) in
                let total = c +. sub in
                if total < fst !best then best := (total, Some (mask, g))
              end)
            feasible;
          Hashtbl.replace memo scheduled !best;
          !best
    end
  in
  let cost, _ = dp 0 in
  if not (Float.is_finite cost) then
    invalid_arg "Exact.solve: no feasible cover (singletons should always cover)";
  let rec rebuild scheduled acc =
    if scheduled = full then acc
    else begin
      match Hashtbl.find_opt memo scheduled with
      | Some (_, Some (mask, g)) -> rebuild (scheduled lor mask) (g :: acc)
      | _ -> invalid_arg "Exact.solve: reconstruction failed"
    end
  in
  let groups = Kf_fusion.Plan.canonical_groups (rebuild 0 []) in
  {
    groups;
    plan = Kf_fusion.Plan.of_groups ~n groups;
    cost;
    feasible_groups = Array.length feasible;
    dp_states = Hashtbl.length memo;
  }

let optimal_cost ?max_group_size obj = (solve ?max_group_size obj).cost
