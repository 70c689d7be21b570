module Bitset = Kf_util.Bitset
module Rng = Kf_util.Rng
module Inputs = Kf_model.Inputs
module Exec_order = Kf_graph.Exec_order
module Dag = Kf_graph.Dag
module Objective = Kf_search.Objective
module Grouping = Kf_search.Grouping

let exec_of obj = (Objective.inputs obj).Inputs.exec

(* Kosaraju over the condensed (per-group) dependency graph, rebuilt from
   the execution DAG on every call. *)
let condensation_sccs exec groups_arr =
  let dag = Exec_order.dag exec in
  let ng = Array.length groups_arr in
  let group_of = Hashtbl.create 64 in
  Array.iteri (fun gi g -> List.iter (fun k -> Hashtbl.replace group_of k gi) g) groups_arr;
  let adj = Array.make ng [] and radj = Array.make ng [] in
  for u = 0 to Dag.num_nodes dag - 1 do
    List.iter
      (fun v ->
        match (Hashtbl.find_opt group_of u, Hashtbl.find_opt group_of v) with
        | Some gu, Some gv when gu <> gv ->
            adj.(gu) <- gv :: adj.(gu);
            radj.(gv) <- gu :: radj.(gv)
        | _ -> ())
      (Dag.succs dag u)
  done;
  let visited = Array.make ng false and order = ref [] in
  let rec dfs1 v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs1 adj.(v);
      order := v :: !order
    end
  in
  for v = 0 to ng - 1 do
    dfs1 v
  done;
  let comp = Array.make ng (-1) in
  let rec dfs2 v c =
    if comp.(v) < 0 then begin
      comp.(v) <- c;
      List.iter (fun w -> dfs2 w c) radj.(v)
    end
  in
  let nc = ref 0 in
  List.iter
    (fun v ->
      if comp.(v) < 0 then begin
        dfs2 v !nc;
        incr nc
      end)
    !order;
  let sccs = Array.make !nc [] in
  Array.iteri (fun gi c -> sccs.(c) <- gi :: sccs.(c)) comp;
  Array.to_list sccs

let schedulable obj groups =
  List.for_all
    (fun scc -> List.length scc <= 1)
    (condensation_sccs (exec_of obj) (Array.of_list groups))

let absorbing_merge obj groups seed =
  let exec = exec_of obj in
  let dag = Exec_order.dag exec in
  let merged = ref (Bitset.of_list (Dag.num_nodes dag) seed) in
  let rest = ref groups in
  let stable = ref false in
  while not !stable do
    merged := Dag.path_closure dag !merged;
    let intersecting, untouched =
      List.partition (fun g -> List.exists (Bitset.mem !merged) g) !rest
    in
    if intersecting <> [] then begin
      List.iter (fun g -> List.iter (Bitset.add !merged) g) intersecting;
      rest := untouched
    end
    else begin
      (* Absorb the condensation component holding the merged group
         (index 0), found by a full SCC pass. *)
      let arr = Array.of_list (Bitset.to_list !merged :: !rest) in
      match
        List.find_opt
          (fun scc -> List.mem 0 scc && List.length scc > 1)
          (condensation_sccs exec arr)
      with
      | None -> stable := true
      | Some scc ->
          let absorb = List.filter (( <> ) 0) scc in
          List.iter (fun gi -> List.iter (Bitset.add !merged) arr.(gi)) absorb;
          rest := List.filteri (fun i _ -> not (List.mem (i + 1) absorb)) !rest
    end
  done;
  let group = Bitset.to_list !merged in
  if Objective.group_feasible obj group then Some (group, !rest) else None

let merge_pair obj groups a b =
  absorbing_merge obj (List.filter (fun g -> g <> a && g <> b) groups) (a @ b)

let repair_schedule obj groups =
  let result = ref groups and continue_ = ref true in
  while !continue_ do
    let arr = Array.of_list !result in
    match
      List.find_opt (fun scc -> List.length scc > 1) (condensation_sccs (exec_of obj) arr)
    with
    | None -> continue_ := false
    | Some scc -> (
        let in_scc = List.concat_map (fun gi -> arr.(gi)) scc in
        let others = List.filteri (fun i _ -> not (List.mem i scc)) !result in
        match absorbing_merge obj others in_scc with
        | Some (merged, rest) -> result := merged :: rest
        | None -> result := List.map (fun k -> [ k ]) in_scc @ others)
  done;
  !result

let dissolve groups g =
  let found = ref false in
  List.concat_map
    (fun g' ->
      if (not !found) && g' = g then begin
        found := true;
        List.map (fun k -> [ k ]) g'
      end
      else [ g' ])
    groups

let eject obj groups k =
  match List.find_opt (fun g -> List.mem k g) groups with
  | None | Some [ _ ] -> None
  | Some g ->
      let remainder = List.filter (( <> ) k) g in
      if
        Objective.group_feasible obj remainder
        && Exec_order.group_is_convex (exec_of obj) remainder
      then Some ([ k ] :: remainder :: List.filter (fun g' -> g' <> g) groups)
      else None

let kin_adjacent_groups obj groups group =
  let meta = (Objective.inputs obj).Inputs.meta in
  let neighbors =
    List.concat_map (fun k -> Kf_ir.Metadata.kin_neighbors meta k) group
    |> List.sort_uniq compare
    |> List.filter (fun k -> not (List.mem k group))
  in
  List.filter (fun g -> g <> group && List.exists (fun k -> List.mem k neighbors) g) groups

(* [Grouping.random_plan], draw for draw, over the list operators
   above: each attempt rebuilds the merge from the current list. *)
let random_plan obj rng ?merge_attempts n =
  let attempts = match merge_attempts with Some a -> a | None -> 2 * n in
  let groups = ref (List.init n (fun k -> [ k ])) in
  for _ = 1 to attempts do
    if List.length !groups >= 2 then begin
      let g = Rng.choose rng (Array.of_list !groups) in
      match kin_adjacent_groups obj !groups g with
      | [] -> ()
      | candidates -> (
          let partner = Rng.choose rng (Array.of_list candidates) in
          match merge_pair obj !groups g partner with
          | Some (merged, rest) ->
              if Objective.group_profitable obj merged || Rng.chance rng 0.25 then
                groups := merged :: rest
          | None -> ())
    end
  done;
  Kf_fusion.Plan.canonical_groups !groups

(* The hill climb of [Grouping.local_refine], move for move, over the
   operators above. *)
let relocation_pass obj current =
  let cost gs = Objective.plan_cost obj gs in
  let improved = ref false in
  List.iter
    (fun k ->
      let base = cost !current in
      let own = List.find (List.mem k) !current in
      let as_singleton =
        if List.length own = 1 then Some !current else eject obj !current k
      in
      match as_singleton with
      | None -> ()
      | Some ejected -> (
          let candidates =
            ejected
            :: List.filter_map
                 (fun g ->
                   match merge_pair obj ejected [ k ] g with
                   | Some (merged, rest) -> Some (merged :: rest)
                   | None -> None)
                 (kin_adjacent_groups obj ejected [ k ])
          in
          let best =
            List.fold_left
              (fun acc cand ->
                let c = cost cand in
                match acc with Some (bc, _) when bc <= c -> acc | _ -> Some (c, cand))
              None candidates
          in
          match best with
          | Some (c, cand) when c < base -. 1e-15 ->
              current := cand;
              improved := true
          | _ -> ()))
    (List.concat !current);
  !improved

let swap_pass obj current =
  let cost gs = Objective.plan_cost obj gs in
  let improved = ref false in
  let multi () = List.filter (fun g -> List.length g >= 2) !current in
  let live g = List.mem g !current in
  let ( >>= ) o f = match o with None -> None | Some x -> f x in
  List.iter
    (fun g1 ->
      if live g1 then
        List.iter
          (fun g2 ->
            if live g1 && live g2 && g1 <> g2 then
              List.iter
                (fun k1 ->
                  List.iter
                    (fun k2 ->
                      if live g1 && live g2 then begin
                        let base = cost !current in
                        let plan =
                          eject obj !current k1 >>= fun p1 ->
                          eject obj p1 k2 >>= fun p2 ->
                          let r2 = List.filter (( <> ) k2) g2
                          and r1 = List.filter (( <> ) k1) g1 in
                          (if List.mem r2 p2 then merge_pair obj p2 [ k1 ] r2 else None)
                          >>= fun (m1, rest1) ->
                          let p3 = m1 :: rest1 in
                          if List.mem r1 p3 then
                            merge_pair obj p3 [ k2 ] r1 >>= fun (m2, rest2) ->
                            Some (m2 :: rest2)
                          else None
                        in
                        match plan with
                        | Some cand when cost cand < base -. 1e-15 ->
                            current := cand;
                            improved := true
                        | _ -> ()
                      end)
                    g2)
                g1)
          (multi ()))
    (multi ());
  !improved

let local_refine ?(max_passes = 3) obj groups =
  let n = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  let current = ref groups and improved = ref true and passes = ref 0 in
  while !improved && !passes < max_passes do
    incr passes;
    improved := relocation_pass obj current;
    if n <= 48 then improved := swap_pass obj current || !improved
  done;
  Kf_fusion.Plan.canonical_groups !current
