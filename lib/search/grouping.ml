module Rng = Kf_util.Rng
module Bitset = Kf_util.Bitset
module Inputs = Kf_model.Inputs
module Metadata = Kf_ir.Metadata
module Exec_order = Kf_graph.Exec_order
module Dag = Kf_graph.Dag

type groups = int list list

(* Int-specialized, and already-sorted member lists (the common case by
   far: bitset extractions, previously normalized plans) are reused
   rather than re-sorted. *)
let normalize groups =
  List.map
    (fun g -> if Kf_fusion.Plan.is_sorted_strict g then g else List.sort Int.compare g)
    groups
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

let exec_of obj = (Objective.inputs obj).Inputs.exec
let meta_of obj = (Objective.inputs obj).Inputs.meta

(* Strongly connected components of the condensed (per-group) dependency
   graph.  Per-group path convexity (paper Eq. 1.3) does not by itself
   guarantee that the new kernels can be ordered — two convex groups can
   still depend on each other through different members — so merges must
   also swallow any condensation cycle they create. *)
let condensation_sccs exec groups_arr =
  let dag = Exec_order.dag exec in
  let ng = Array.length groups_arr in
  let group_of = Hashtbl.create 64 in
  Array.iteri (fun gi g -> List.iter (fun k -> Hashtbl.replace group_of k gi) g) groups_arr;
  let adj = Array.make ng [] in
  let radj = Array.make ng [] in
  for u = 0 to Dag.num_nodes dag - 1 do
    if Hashtbl.mem group_of u then
      List.iter
        (fun v ->
          match (Hashtbl.find_opt group_of u, Hashtbl.find_opt group_of v) with
          | Some gu, Some gv when gu <> gv ->
              adj.(gu) <- gv :: adj.(gu);
              radj.(gv) <- gu :: radj.(gv)
          | _ -> ())
        (Dag.succs dag u)
  done;
  (* Kosaraju. *)
  let visited = Array.make ng false in
  let order = ref [] in
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

(* Structural operators are pure functions of the (fixed) execution
   order, metadata and their arguments, and the GA re-asks the same
   structural questions constantly, so each of the wrappers below
   memoizes its operator in the objective's {!Objective.memos} under an
   exact-order signature (see {!Struct_memo} for why the keys must not
   be canonicalized). *)
(* Group-level acyclicity (Kahn's algorithm on bitset adjacency).  Both
   consumers of [sccs_of] only inspect component {e sizes}, so when the
   condensation is acyclic any all-singleton component list is
   behaviorally interchangeable with Kosaraju's — which lets the memo
   miss path skip the full SCC pass in the (overwhelmingly common)
   schedulable case. *)
let group_dag_acyclic succs arr =
  let ng = Array.length arr in
  if ng <= 1 || Array.length succs = 0 then true
  else begin
    let n = Bitset.universe_size succs.(0) in
    let out =
      Array.map
        (fun g ->
          let b = Bitset.create n in
          List.iter (fun u -> Bitset.union_into b succs.(u)) g;
          b)
        arr
    in
    let edge i j = i <> j && List.exists (Bitset.mem out.(i)) arr.(j) in
    let indeg = Array.make ng 0 in
    for i = 0 to ng - 1 do
      for j = 0 to ng - 1 do
        if edge i j then indeg.(j) <- indeg.(j) + 1
      done
    done;
    let queue = ref [] in
    Array.iteri (fun j d -> if d = 0 then queue := j :: !queue) indeg;
    let removed = ref 0 in
    while !queue <> [] do
      match !queue with
      | [] -> ()
      | i :: tl ->
          queue := tl;
          incr removed;
          for j = 0 to ng - 1 do
            if edge i j then begin
              indeg.(j) <- indeg.(j) - 1;
              if indeg.(j) = 0 then queue := j :: !queue
            end
          done
    done;
    !removed = ng
  end

let sccs_of obj exec groups_arr =
  let m = Objective.memos obj in
  Struct_memo.find_exact m.Struct_memo.sccs
    (Array.to_list groups_arr)
    (fun () ->
      if group_dag_acyclic m.Struct_memo.succs groups_arr then
        List.init (Array.length groups_arr) (fun i -> [ i ])
      else condensation_sccs exec groups_arr)

(* Memo hits return a fresh bitset (the table copies on both sides):
   callers mutate the closure in place, and a shared cached bitset would
   be corrupted by the first caller. *)
let closure_of obj dag bs =
  Struct_memo.find_or_compute_bitset (Objective.memos obj).Struct_memo.closure bs (fun () ->
      Dag.path_closure dag bs)

let schedulable obj groups =
  List.for_all
    (fun scc -> List.length scc <= 1)
    (sccs_of obj (exec_of obj) (Array.of_list groups))

(* Group indices (never 0 itself) in a condensation cycle with group 0:
   [{j | 0 ->+ j and j ->+ 0}] at group granularity, walked directly on
   the precomputed per-kernel successor bitsets.  Exactly the members of
   the [condensation_sccs] component containing group 0, minus 0 — but
   without rebuilding adjacency tables or running a full Kosaraju pass,
   which dominates the raw merge on small programs. *)
let cycle_with_zero succs arr =
  let ng = Array.length arr in
  if ng <= 1 || Array.length succs = 0 then []
  else begin
    let n = Bitset.universe_size succs.(0) in
    let out =
      Array.map
        (fun g ->
          let b = Bitset.create n in
          List.iter (fun u -> Bitset.union_into b succs.(u)) g;
          b)
        arr
    in
    let edge i j = i <> j && List.exists (Bitset.mem out.(i)) arr.(j) in
    let fwd = Array.make ng false in
    let bwd = Array.make ng false in
    let rec dfs seen via i =
      for j = 0 to ng - 1 do
        if (not seen.(j)) && via i j then begin
          seen.(j) <- true;
          dfs seen via j
        end
      done
    in
    dfs fwd (fun i j -> edge i j) 0;
    dfs bwd (fun i j -> edge j i) 0;
    let acc = ref [] in
    for j = ng - 1 downto 1 do
      if fwd.(j) && bwd.(j) then acc := j :: !acc
    done;
    !acc
  end

let absorbing_merge_raw obj groups seed =
  let exec = exec_of obj in
  let dag = Exec_order.dag exec in
  let n = Dag.num_nodes dag in
  let merged = ref (Bitset.of_list n seed) in
  let rest = ref groups in
  let stable = ref false in
  while not !stable do
    (* Close under the path constraint, then absorb any group that now
       intersects the closure; repeat until nothing more is pulled in. *)
    merged := closure_of obj dag !merged;
    let intersecting, untouched =
      List.partition (fun g -> List.exists (Bitset.mem !merged) g) !rest
    in
    if intersecting <> [] then begin
      List.iter (fun g -> List.iter (Bitset.add !merged) g) intersecting;
      rest := untouched
    end
    else begin
      (* Closure stable: absorb any condensation cycle through the merged
         group (the merge may have created mutual dependencies with
         otherwise-untouched groups). *)
      let arr = Array.of_list (Bitset.to_list !merged :: !rest) in
      let absorb_idx = cycle_with_zero (Objective.memos obj).Struct_memo.succs arr in
      match absorb_idx with
      | [] -> stable := true
      | _ ->
          List.iter (fun gi -> List.iter (Bitset.add !merged) arr.(gi)) absorb_idx;
          rest := List.filteri (fun i _ -> not (List.mem (i + 1) absorb_idx)) !rest
    end
  done;
  let group = Bitset.to_list !merged in
  if Objective.group_feasible obj group then Some (group, !rest) else None

(* The absorbed member set is a pure set-level fixpoint (closure + cycle
   absorption), independent of the order of [groups] and [seed], so the
   memo key is canonical and permuted-but-equal calls collide; only the
   order-preserving [rest] is rebuilt from the live argument on a hit.
   Memoizing the merge (feasibility probe included) skips repeat cache
   probes; with the default unbounded verdict cache the skipped probe
   would have been a hit, so evaluation counts are unchanged. *)
let absorbing_merge obj groups seed =
  let merged =
    Struct_memo.find_canonical (Objective.memos obj).Struct_memo.merge groups seed
      (fun () ->
        match absorbing_merge_raw obj groups seed with
        | Some (group, _) -> Some group
        | None -> None)
  in
  match merged with
  | None -> None
  | Some group ->
      (* Same boolean as a bitset membership test, without building the
         bitset: the merged member list is short and sorted. *)
      let rec mem_int (k : int) = function
        | [] -> false
        | x :: tl -> x = k || mem_int k tl
      in
      Some (group, List.filter (fun g -> not (List.exists (fun k -> mem_int k group) g)) groups)

let repair_schedule obj groups =
  (* Merge every multi-group condensation cycle; if the merged group is
     infeasible, dissolve the cycle's groups into singletons (a refinement
     never introduces new cycles). *)
  let result = ref groups in
  let continue_ = ref true in
  while !continue_ do
    let arr = Array.of_list !result in
    match List.find_opt (fun scc -> List.length scc > 1) (sccs_of obj (exec_of obj) arr) with
    | None -> continue_ := false
    | Some scc ->
        let in_scc = List.concat_map (fun gi -> arr.(gi)) scc in
        let others =
          List.filteri (fun i _ -> not (List.mem i scc)) !result
        in
        (match absorbing_merge obj others in_scc with
        | Some (merged, rest) -> result := merged :: rest
        | None -> result := List.map (fun k -> [ k ]) in_scc @ others)
  done;
  !result

let merge_pair obj groups a b =
  let others = List.filter (fun g -> g <> a && g <> b) groups in
  absorbing_merge obj others (a @ b)

let kin_neighbor_list obj group =
  let meta = meta_of obj in
  List.concat_map (fun k -> Metadata.kin_neighbors meta k) group
  |> List.sort_uniq compare
  |> List.filter (fun k -> not (List.mem k group))

(* The adjacency predicate depends only on the probe group's (fixed,
   metadata-derived) kinship neighbor set, never on the rest of the
   partition — so the memo caches that set per group, and the
   order-preserving filter over [groups] runs on every call. *)
let kin_adjacent_groups obj groups group =
  let nb =
    Struct_memo.find_group (Objective.memos obj).Struct_memo.kin group (fun () ->
        let n = Dag.num_nodes (Exec_order.dag (exec_of obj)) in
        Bitset.of_list n (kin_neighbor_list obj group))
  in
  List.filter (fun g -> g <> group && List.exists (Bitset.mem nb) g) groups

let random_plan obj rng ?merge_attempts n =
  let attempts = match merge_attempts with Some a -> a | None -> 2 * n in
  let groups = ref (List.init n (fun k -> [ k ])) in
  (* Kept in sync with [groups]; most attempts mutate nothing, so the
     array is only rebuilt after an accepted merge. *)
  let arr = ref (Array.of_list !groups) in
  for _ = 1 to attempts do
    if Array.length !arr >= 2 then begin
      let g = Rng.choose rng !arr in
      match kin_adjacent_groups obj !groups g with
      | [] -> ()
      | candidates -> begin
          let partner = Rng.choose rng (Array.of_list candidates) in
          (* Deliberately the raw merge, not the memoized one: initial
             plans are drawn from novel random partitions, so memo probes
             at this site rarely hit and their key encoding outweighs the
             (fast-cycle-check) merge itself — and every probe would also
             pollute the table crossover relies on.  Memoization is
             result-invisible, so this is a throughput choice only. *)
          let others = List.filter (fun g' -> g' <> g && g' <> partner) !groups in
          match absorbing_merge_raw obj others (g @ partner) with
          | Some (merged, rest) ->
              (* Keep the merge only when the model likes it at least half
                 the time; always-greedy initial populations collapse into
                 one basin. *)
              let keep =
                Objective.group_profitable obj merged || Rng.chance rng 0.25
              in
              if keep then begin
                groups := merged :: rest;
                arr := Array.of_list !groups
              end
          | None -> ()
        end
    end
  done;
  normalize !groups

let dissolve groups g =
  let found = ref false in
  let out =
    List.concat_map
      (fun g' ->
        if (not !found) && g' = g then begin
          found := true;
          List.map (fun k -> [ k ]) g'
        end
        else [ g' ])
      groups
  in
  out

let eject obj groups k =
  let target = List.find_opt (fun g -> List.mem k g) groups in
  match target with
  | None | Some [ _ ] -> None
  | Some g ->
      let remainder = List.filter (( <> ) k) g in
      if
        Objective.group_feasible obj remainder
        && Exec_order.group_is_convex (exec_of obj) remainder
      then begin
        let others = List.filter (fun g' -> g' <> g) groups in
        Some ([ k ] :: remainder :: others)
      end
      else None

let relocation_pass obj current =
  let cost gs = Objective.plan_cost obj gs in
  let improved = ref false in
  let kernels = List.concat !current in
  List.iter
    (fun k ->
      let base = cost !current in
      let own = List.find (List.mem k) !current in
      (* Candidate plans: k alone, and k merged into each adjacent group.
         Relocation of a non-singleton member goes through eject (which
         checks the remainder's feasibility). *)
      let as_singleton =
        if List.length own = 1 then Some !current else eject obj !current k
      in
      match as_singleton with
      | None -> ()
      | Some ejected ->
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
          (match best with
          | Some (c, cand) when c < base -. 1e-15 ->
              current := cand;
              improved := true
          | _ -> ()))
    kernels;
  !improved

(* Exchange one kernel between two multi-member groups.  Relocation alone
   cannot repair mispaired groups ({a,c},{b,d} vs {a,b},{c,d}) because the
   intermediate states do not improve. *)
let swap_pass obj current =
  let cost gs = Objective.plan_cost obj gs in
  let improved = ref false in
  let multi () = List.filter (fun g -> List.length g >= 2) !current in
  List.iter
    (fun g1 ->
      if List.mem g1 !current then
        List.iter
          (fun g2 ->
            if List.mem g1 !current && List.mem g2 !current && g1 <> g2 then
              List.iter
                (fun k1 ->
                  List.iter
                    (fun k2 ->
                      if List.mem g1 !current && List.mem g2 !current then begin
                        let base = cost !current in
                        let ( >>= ) o f = match o with None -> None | Some x -> f x in
                        let plan =
                          eject obj !current k1 >>= fun p1 ->
                          eject obj p1 k2 >>= fun p2 ->
                          let r2 = List.filter (( <> ) k2) g2 in
                          let r1 = List.filter (( <> ) k1) g1 in
                          (if List.mem r2 p2 then merge_pair obj p2 [ k1 ] r2 else None)
                          >>= fun (m1, rest1) ->
                          let p3 = m1 :: rest1 in
                          if List.mem r1 p3 then begin
                            merge_pair obj p3 [ k2 ] r1 >>= fun (m2, rest2) ->
                            Some (m2 :: rest2)
                          end
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

let local_refine_raw ~max_passes obj groups =
  let n = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  let current = ref groups in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    incr passes;
    improved := relocation_pass obj current;
    (* The quadratic swap neighborhood only pays on small instances. *)
    if n <= 48 then improved := swap_pass obj current || !improved
  done;
  normalize !current

(* Refinement is deterministic in its input and the GA refines the
   generation champion every generation — which rarely changes between
   improvements, so repeat refinements of the same (exact-order) plan
   are hits.  The objective probes a hit skips would all be cache hits
   themselves, so evaluation counts are unchanged. *)
let local_refine ?(max_passes = 3) obj groups =
  Struct_memo.find_exact_with (Objective.memos obj).Struct_memo.refine groups [ max_passes ]
    (fun () -> local_refine_raw ~max_passes obj groups)

let enforce_profitability obj groups =
  normalize
    (List.concat_map
       (fun g ->
         if List.length g >= 2 && not (Objective.group_profitable obj g) then
           List.map (fun k -> [ k ]) g
         else [ g ])
       groups)
