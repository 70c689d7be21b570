module Rng = Kf_util.Rng
module Bitset = Kf_util.Bitset
module Inputs = Kf_model.Inputs
module Metadata = Kf_ir.Metadata
module Exec_order = Kf_graph.Exec_order
module Dag = Kf_graph.Dag

type groups = int list list

let exec_of obj = (Objective.inputs obj).Inputs.exec
let meta_of obj = (Objective.inputs obj).Inputs.meta

let kin_neighbor_list obj group =
  let meta = meta_of obj in
  List.concat_map (fun k -> Metadata.kin_neighbors meta k) group
  |> List.sort_uniq compare
  |> List.filter (fun k -> not (List.mem k group))

(* A group's kinship neighbor set depends only on its (fixed,
   metadata-derived) members, never on the rest of the partition, so
   it is memoized per group; the cached bitset is read-only. *)
let kin_set obj group =
  Struct_memo.find_group (Objective.memos obj).Struct_memo.kin group (fun () ->
      let n = Dag.num_nodes (Exec_order.dag (exec_of obj)) in
      Bitset.of_list n (kin_neighbor_list obj group))

let kin_adjacent_groups obj groups group =
  let nb = kin_set obj group in
  List.filter (fun g -> g <> group && List.exists (Bitset.mem nb) g) groups

module Partition = struct
  (* Groups are named by ids in [0, n): a live id has members, a free id
     sits on the [free] stack.  [gsucc.(g)] / [gpred.(g)] are the ids of
     the groups holding a direct successor / predecessor of a member of
     [g] in the execution DAG — the condensed graph, kept exact across
     every update by [detach] and [attach].  [order] holds the live ids
     in the order of the equivalent [int list list]. *)
  type t = {
    obj : Objective.t;
    succs : int array array;
    preds : int array array;
    group_of : int array;
    members : int list array;
    gsucc : Bitset.t array;
    gpred : Bitset.t array;
    order : int array;
    mutable len : int;
    free : int array;
    mutable nfree : int;
    (* working sets of [merge], [kin_adjacent] and [acyclic] *)
    mark : Bitset.t;
    reach : Bitset.t;
    kset : Bitset.t;
    stack : int array;
  }

  type merge = { absorbed : int list; group : int list }

  let length st = st.len
  let nth st i = st.order.(i)
  let group_of st k = st.group_of.(k)
  let members st g = st.members.(g)
  let merged_group m = m.group
  let to_groups st = List.init st.len (fun i -> st.members.(st.order.(i)))

  let of_groups obj groups =
    let memos = Objective.memos obj in
    let n = Array.length memos.Struct_memo.succs in
    let invalid () = invalid_arg "Grouping.Partition.of_groups: not a partition of the kernels" in
    let group_of = Array.make n (-1) and members = Array.make n [] in
    List.iteri
      (fun g ms ->
        if ms = [] then invalid ();
        List.iter
          (fun k ->
            if k < 0 || k >= n || group_of.(k) >= 0 then invalid ();
            group_of.(k) <- g)
          ms;
        members.(g) <- ms)
      groups;
    if Array.exists (fun g -> g < 0) group_of then invalid ();
    let len = List.length groups in
    let st =
      {
        obj;
        succs = memos.Struct_memo.succs;
        preds = memos.Struct_memo.preds;
        group_of;
        members;
        gsucc = Array.init n (fun _ -> Bitset.create n);
        gpred = Array.init n (fun _ -> Bitset.create n);
        order = Array.init n (fun i -> i);
        len;
        free = Array.init n (fun i -> n - 1 - i);
        nfree = n - len;
        mark = Bitset.create n;
        reach = Bitset.create n;
        kset = Bitset.create n;
        stack = Array.make n 0;
      }
    in
    Array.iteri
      (fun u vs ->
        let gu = group_of.(u) in
        Array.iter
          (fun v ->
            let gv = group_of.(v) in
            if gu <> gv then begin
              Bitset.add st.gsucc.(gu) gv;
              Bitset.add st.gpred.(gv) gu
            end)
          vs)
      st.succs;
    st

  let detach st g =
    Bitset.iter (fun h -> Bitset.remove st.gpred.(h) g) st.gsucc.(g);
    Bitset.iter (fun h -> Bitset.remove st.gsucc.(h) g) st.gpred.(g);
    Bitset.clear st.gsucc.(g);
    Bitset.clear st.gpred.(g)

  let attach st g =
    List.iter
      (fun k ->
        Array.iter
          (fun v ->
            let h = st.group_of.(v) in
            if h <> g then begin
              Bitset.add st.gsucc.(g) h;
              Bitset.add st.gpred.(h) g
            end)
          st.succs.(k);
        Array.iter
          (fun u ->
            let h = st.group_of.(u) in
            if h <> g then begin
              Bitset.add st.gpred.(g) h;
              Bitset.add st.gsucc.(h) g
            end)
          st.preds.(k))
      st.members.(g)

  let fresh_id st =
    st.nfree <- st.nfree - 1;
    st.free.(st.nfree)

  let release st g =
    st.members.(g) <- [];
    st.free.(st.nfree) <- g;
    st.nfree <- st.nfree + 1

  let set_order st ids =
    List.iteri (fun i g -> st.order.(i) <- g) ids;
    st.len <- List.length ids

  let live st = List.init st.len (nth st)

  (* Split groups into singletons, one per member in member order
     (concatenated over [gs]); returns the new ids in that order. *)
  let split st gs =
    List.iter (detach st) gs;
    let ids =
      List.concat_map
        (fun g ->
          let ms = st.members.(g) in
          release st g;
          List.map
            (fun k ->
              let id = fresh_id st in
              st.group_of.(k) <- id;
              st.members.(id) <- [ k ];
              id)
            ms)
        gs
    in
    List.iter (attach st) ids;
    ids

  let kin_adjacent st g =
    let nb = kin_set st.obj st.members.(g) in
    Bitset.clear st.mark;
    Bitset.iter (fun k -> Bitset.add st.mark st.group_of.(k)) nb;
    let acc = ref [] in
    for i = st.len - 1 downto 0 do
      let h = st.order.(i) in
      if h <> g && Bitset.mem st.mark h then acc := h :: !acc
    done;
    !acc

  (* Grow the seed ids in [mark] to the absorbed set of a merge: the
     seeds plus every group both reachable from and reaching them in the
     condensed graph.  A path-closure member outside the seeds lies on a
     kernel path between two seed members, so its group is such a group;
     and once these groups are absorbed, no group outside can close a
     cycle through the merged group (it would reach and be reached by
     the seeds already).  So one forward and one backward search reach
     the fixpoint the kernel-level closure and cycle absorption iterate
     to.  The backward search only visits forward-reached groups. *)
  let absorb st =
    let sp = ref 0 in
    let push g =
      st.stack.(!sp) <- g;
      incr sp
    in
    let pop () =
      decr sp;
      st.stack.(!sp)
    in
    Bitset.clear st.reach;
    Bitset.iter push st.mark;
    while !sp > 0 do
      Bitset.iter
        (fun h ->
          if not (Bitset.mem st.mark h || Bitset.mem st.reach h) then begin
            Bitset.add st.reach h;
            push h
          end)
        st.gsucc.(pop ())
    done;
    Bitset.iter push st.mark;
    while !sp > 0 do
      Bitset.iter
        (fun h ->
          if Bitset.mem st.reach h then begin
            Bitset.remove st.reach h;
            Bitset.add st.mark h;
            push h
          end)
        st.gpred.(pop ())
    done

  let merge st seeds =
    Bitset.clear st.mark;
    List.iter (Bitset.add st.mark) seeds;
    absorb st;
    Bitset.clear st.kset;
    Bitset.iter (fun g -> List.iter (Bitset.add st.kset) st.members.(g)) st.mark;
    let group = Bitset.to_list st.kset in
    if Objective.group_feasible st.obj group then
      Some { absorbed = Bitset.to_list st.mark; group }
    else None

  let commit st { absorbed; group } =
    List.iter (detach st) absorbed;
    List.iter (release st) absorbed;
    let id = fresh_id st in
    List.iter (fun k -> st.group_of.(k) <- id) group;
    st.members.(id) <- group;
    attach st id;
    set_order st (id :: List.filter (fun g -> not (List.mem g absorbed)) (live st))

  let eject st k =
    let g = st.group_of.(k) in
    match st.members.(g) with
    | [ _ ] -> false
    | ms ->
        let remainder = List.filter (( <> ) k) ms in
        Objective.group_feasible st.obj remainder
        && Exec_order.group_is_convex (exec_of st.obj) remainder
        && begin
             detach st g;
             let id = fresh_id st in
             st.group_of.(k) <- id;
             st.members.(id) <- [ k ];
             st.members.(g) <- remainder;
             attach st g;
             attach st id;
             set_order st (id :: g :: List.filter (( <> ) g) (live st));
             true
           end

  let dissolve st g =
    let before = live st in
    let ids = split st [ g ] in
    set_order st (List.concat_map (fun h -> if h = g then ids else [ h ]) before)

  (* Kahn's algorithm on the condensed graph. *)
  let acyclic st =
    let indeg = Array.make (Array.length st.group_of) 0 in
    let sp = ref 0 in
    for i = 0 to st.len - 1 do
      let g = st.order.(i) in
      indeg.(g) <- Bitset.cardinal st.gpred.(g);
      if indeg.(g) = 0 then begin
        st.stack.(!sp) <- g;
        incr sp
      end
    done;
    let removed = ref 0 in
    while !sp > 0 do
      decr sp;
      incr removed;
      Bitset.iter
        (fun h ->
          indeg.(h) <- indeg.(h) - 1;
          if indeg.(h) = 0 then begin
            st.stack.(!sp) <- h;
            incr sp
          end)
        st.gsucc.(st.stack.(!sp))
    done;
    !removed = st.len

  (* Kosaraju over list positions, with adjacency lists built kernel by
     kernel in successor order: the first multi-group component it
     reports (as positions, highest first) fixes the order in which
     [repair] visits cycles, and so the order of its output list. *)
  let first_cycle st =
    let ng = st.len in
    let pos = Array.make (Array.length st.group_of) 0 in
    for i = 0 to ng - 1 do
      pos.(st.order.(i)) <- i
    done;
    let adj = Array.make ng [] and radj = Array.make ng [] in
    Array.iteri
      (fun u vs ->
        let gu = pos.(st.group_of.(u)) in
        Array.iter
          (fun v ->
            let gv = pos.(st.group_of.(v)) in
            if gu <> gv then begin
              adj.(gu) <- gv :: adj.(gu);
              radj.(gv) <- gu :: radj.(gv)
            end)
          vs)
      st.succs;
    let visited = Array.make ng false and finished = ref [] in
    let rec dfs1 v =
      if not visited.(v) then begin
        visited.(v) <- true;
        List.iter dfs1 adj.(v);
        finished := v :: !finished
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
      !finished;
    let sccs = Array.make !nc [] in
    Array.iteri (fun p c -> sccs.(c) <- p :: sccs.(c)) comp;
    Array.find_opt (fun scc -> List.length scc > 1) sccs

  (* Merge every multi-group condensation cycle; if the merged group is
     infeasible, dissolve the cycle's groups into singletons (a
     refinement never introduces new cycles). *)
  let rec repair st =
    if not (acyclic st) then
      match first_cycle st with
      | None -> ()
      | Some scc ->
          let ids = List.map (fun p -> st.order.(p)) scc in
          (match merge st ids with
          | Some m -> commit st m
          | None ->
              let singles = split st ids in
              set_order st (singles @ List.filter (fun g -> not (List.mem g ids)) (live st)));
          repair st
end

let schedulable obj groups = Partition.acyclic (Partition.of_groups obj groups)

let repair_schedule obj groups =
  let st = Partition.of_groups obj groups in
  Partition.repair st;
  Partition.to_groups st

let absorbing_merge obj groups seed =
  let st = Partition.of_groups obj groups in
  let seeds = List.sort_uniq Int.compare (List.map (Partition.group_of st) seed) in
  Partition.merge st seeds
  |> Option.map (fun m ->
         Partition.commit st m;
         (* the merged group comes first *)
         (m.Partition.group, List.tl (Partition.to_groups st)))

let merge_pair obj groups a b = absorbing_merge obj groups (a @ b)

let random_plan obj rng ?merge_attempts n =
  let attempts = match merge_attempts with Some a -> a | None -> 2 * n in
  let st = Partition.of_groups obj (List.init n (fun k -> [ k ])) in
  for _ = 1 to attempts do
    if Partition.length st >= 2 then begin
      let g = Partition.nth st (Rng.int rng (Partition.length st)) in
      match Partition.kin_adjacent st g with
      | [] -> ()
      | candidates -> (
          let partner = List.nth candidates (Rng.int rng (List.length candidates)) in
          match Partition.merge st [ g; partner ] with
          | Some m ->
              (* Keep the merge only when the model likes it at least half
                 the time; always-greedy initial populations collapse into
                 one basin. *)
              if Objective.group_profitable obj m.group || Rng.chance rng 0.25 then
                Partition.commit st m
          | None -> ())
    end
  done;
  Kf_fusion.Plan.canonical_groups (Partition.to_groups st)

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
  let st = Partition.of_groups obj groups in
  if Partition.eject st k then Some (Partition.to_groups st) else None

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

let local_refine ?(max_passes = 3) obj groups =
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
  Kf_fusion.Plan.canonical_groups !current

let enforce_profitability obj groups =
  Kf_fusion.Plan.canonical_groups
    (List.concat_map
       (fun g ->
         if List.length g >= 2 && not (Objective.group_profitable obj g) then
           List.map (fun k -> [ k ]) g
         else [ g ])
       groups)
