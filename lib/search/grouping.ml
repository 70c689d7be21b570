module Rng = Kf_util.Rng
module Bitset = Kf_util.Bitset
module Plan = Kf_fusion.Plan
module Sigbuf = Plan.Sigbuf

type groups = int list list

module Partition = struct
  (* Groups are named by ids in [0, n): a live id has members, a free id
     sits on the [free] stack.  A group's members form a chain through
     [next] in member order, from [head].  [gsucc.(g)] / [gpred.(g)] are
     the ids of the groups holding a direct successor / predecessor of a
     member of [g] in the execution DAG — the condensed graph, kept exact
     across every update by [detach] and [attach].  [order] holds the
     live ids in the order of the equivalent [int list list].  Every
     array is allocated once per domain and objective; loading a plan
     and every operator reuse them. *)
  type order_state = Unknown | Valid | Cyclic

  type t = {
    obj : Objective.t;
    n : int;
    succs : int array array;
    preds : int array array;
    kin : Bitset.t array;
    desc : Bitset.t array;
    anc : Bitset.t array;
    group_of : int array;
    next : int array;
    head : int array;
    size : int array;
    gsucc : Bitset.t array;
    gpred : Bitset.t array;
    order : int array;
    mutable len : int;
    free : int array;
    mutable nfree : int;
    (* the group a load is filling, and its last member *)
    mutable tail : int;
    mutable loaded : int;
    (* working sets of [merge], [kin_adjacent] and [acyclic]; after a
       merge, [mark] holds the absorbed ids and [kset] the members *)
    mark : Bitset.t;
    reach : Bitset.t;
    seen : Bitset.t;
    kset : Bitset.t;
    below : Bitset.t;
    above : Bitset.t;
    stack : int array;
    mutable sp : int;
    mutable cur : int;
    indeg : int array;
    (* A topological order of the condensed graph, [topo] from id to
       position and [at] back (-1 in gaps), when [order_state] is
       [Valid]; [bound] is the held merge's window end. *)
    topo : int array;
    at : int array;
    mutable order_state : order_state;
    mutable bound : int;
    cand : int array;
    buf : int array;  (* sorted members handed to the verdict cache *)
    mutable nbuf : int;
    (* plan-key encoding: kernels bucketed by group, ascending; the
       extra slot [n] stands for a pending merge *)
    bhead : int array;
    btail : int array;
    bnext : int array;
    sb : Sigbuf.t;
  }

  let create obj =
    let memos = Objective.memos obj in
    let n = Array.length memos.Struct_memo.succs in
    {
      obj;
      n;
      succs = memos.Struct_memo.succs;
      preds = memos.Struct_memo.preds;
      kin = memos.Struct_memo.kin;
      desc = memos.Struct_memo.desc;
      anc = memos.Struct_memo.anc;
      group_of = Array.make n (-1);
      next = Array.make n (-1);
      head = Array.make n (-1);
      size = Array.make n 0;
      gsucc = Array.init n (fun _ -> Bitset.create n);
      gpred = Array.init n (fun _ -> Bitset.create n);
      order = Array.make n 0;
      len = 0;
      free = Array.make n 0;
      nfree = 0;
      tail = -1;
      loaded = 0;
      mark = Bitset.create n;
      reach = Bitset.create n;
      seen = Bitset.create n;
      kset = Bitset.create n;
      below = Bitset.create n;
      above = Bitset.create n;
      stack = Array.make n 0;
      sp = 0;
      cur = 0;
      indeg = Array.make n 0;
      topo = Array.make n 0;
      at = Array.make n (-1);
      order_state = Unknown;
      bound = max_int;
      cand = Array.make n 0;
      buf = Array.make n 0;
      nbuf = 0;
      bhead = Array.make (n + 1) (-1);
      btail = Array.make (n + 1) (-1);
      bnext = Array.make n (-1);
      sb = Sigbuf.create ();
    }

  type Objective.scratch += Scratch of t

  let scratch obj =
    match Objective.scratch obj with
    | Scratch st -> st
    | _ ->
        let st = create obj in
        Objective.set_scratch obj (Scratch st);
        st

  let length st = st.len
  let nth st i = st.order.(i)
  let group_of st k = st.group_of.(k)
  let size st g = st.size.(g)

  let rec chain st k = if k < 0 then [] else k :: chain st st.next.(k)
  let members st g = chain st st.head.(g)
  let to_groups st = List.init st.len (fun i -> members st st.order.(i))

  (* ---- loading ---------------------------------------------------------- *)

  let invalid () = invalid_arg "Grouping.Partition: not a partition of the kernels"

  let start st =
    Array.fill st.group_of 0 st.n (-1);
    Array.fill st.size 0 st.n 0;
    st.len <- 0;
    st.loaded <- 0

  (* [k] joins group [id] after its last member. *)
  let append st id k =
    st.group_of.(k) <- id;
    if st.size.(id) = 0 then st.head.(id) <- k else st.next.(st.tail) <- k;
    st.next.(k) <- -1;
    st.tail <- k;
    st.size.(id) <- st.size.(id) + 1

  let add st k =
    if k < 0 || k >= st.n || st.group_of.(k) >= 0 || st.len >= st.n then invalid ();
    append st st.len k;
    st.loaded <- st.loaded + 1

  let close st =
    if st.size.(st.len) = 0 then invalid ();
    st.len <- st.len + 1

  let attach st g =
    let k = ref st.head.(g) in
    while !k >= 0 do
      let ss = st.succs.(!k) in
      for i = 0 to Array.length ss - 1 do
        let h = st.group_of.(ss.(i)) in
        if h <> g then begin
          Bitset.add st.gsucc.(g) h;
          Bitset.add st.gpred.(h) g
        end
      done;
      let ps = st.preds.(!k) in
      for i = 0 to Array.length ps - 1 do
        let h = st.group_of.(ps.(i)) in
        if h <> g then begin
          Bitset.add st.gpred.(g) h;
          Bitset.add st.gsucc.(h) g
        end
      done;
      k := st.next.(!k)
    done

  let finish st =
    if st.loaded <> st.n then invalid ();
    st.order_state <- Unknown;
    for g = 0 to st.n - 1 do
      Bitset.clear st.gsucc.(g);
      Bitset.clear st.gpred.(g)
    done;
    for i = 0 to st.len - 1 do
      st.order.(i) <- i
    done;
    st.nfree <- st.n - st.len;
    for i = 0 to st.nfree - 1 do
      st.free.(i) <- st.n - 1 - i
    done;
    for u = 0 to st.n - 1 do
      let gu = st.group_of.(u) and vs = st.succs.(u) in
      for i = 0 to Array.length vs - 1 do
        let gv = st.group_of.(vs.(i)) in
        if gu <> gv then begin
          Bitset.add st.gsucc.(gu) gv;
          Bitset.add st.gpred.(gv) gu
        end
      done
    done

  let rec add_members st = function
    | [] -> ()
    | k :: tl ->
        add st k;
        add_members st tl

  let add_group st g =
    add_members st g;
    close st

  let rec add_groups st = function
    | [] -> ()
    | g :: tl ->
        add_group st g;
        add_groups st tl

  let load st groups =
    start st;
    add_groups st groups;
    finish st

  let of_groups obj groups =
    let st = scratch obj in
    load st groups;
    st

  (* ---- updates ---------------------------------------------------------- *)

  let drop_pred st h = Bitset.remove st.gpred.(h) st.cur
  let drop_succ st h = Bitset.remove st.gsucc.(h) st.cur

  let detach st g =
    st.cur <- g;
    Bitset.iter_with drop_pred st st.gsucc.(g);
    Bitset.iter_with drop_succ st st.gpred.(g);
    Bitset.clear st.gsucc.(g);
    Bitset.clear st.gpred.(g)

  let fresh_id st =
    st.nfree <- st.nfree - 1;
    st.free.(st.nfree)

  let release st g =
    st.size.(g) <- 0;
    st.free.(st.nfree) <- g;
    st.nfree <- st.nfree + 1

  let singleton st k =
    let id = fresh_id st in
    append st id k;
    id

  let position st g =
    let i = ref 0 in
    while st.order.(!i) <> g do
      incr i
    done;
    !i

  (* Union of the kinship rows of [g]'s members into [kset]; the ids of
     the other groups, in list order, holding one of them into [cand]. *)
  let kin_adjacent st g =
    Bitset.clear st.kset;
    let k = ref st.head.(g) in
    while !k >= 0 do
      Bitset.union_into st.kset st.kin.(!k);
      k := st.next.(!k)
    done;
    let c = ref 0 in
    for i = 0 to st.len - 1 do
      let h = st.order.(i) in
      if h <> g then begin
        let k = ref st.head.(h) in
        while !k >= 0 && not (Bitset.mem st.kset !k) do
          k := st.next.(!k)
        done;
        if !k >= 0 then begin
          st.cand.(!c) <- h;
          incr c
        end
      end
    done;
    !c

  let candidate st i = st.cand.(i)

  (* Grow the seed ids in [mark] to the absorbed set of a merge: the
     seeds plus every group both reachable from and reaching them in the
     condensed graph.  A path-closure member outside the seeds lies on a
     kernel path between two seed members, so its group is such a group;
     and once these groups are absorbed, no group outside can close a
     cycle through the merged group (it would reach and be reached by
     the seeds already).  So one forward and one backward search reach
     the fixpoint the kernel-level closure and cycle absorption iterate
     to.  The backward search only visits forward-reached groups. *)
  let push st g =
    st.stack.(st.sp) <- g;
    st.sp <- st.sp + 1

  (* Kahn's algorithm on the condensed graph: the order it removes the
     groups in is a topological order, and it removes them all exactly
     when the graph is acyclic.  The answer holds until the next update
     (a merge keeps the order, see [reorder]). *)
  let release_edge st h =
    st.indeg.(h) <- st.indeg.(h) - 1;
    if st.indeg.(h) = 0 then push st h

  let count_edge st h = st.indeg.(h) <- st.indeg.(h) + 1

  let topological_order st =
    for i = 0 to st.len - 1 do
      st.indeg.(st.order.(i)) <- 0
    done;
    for i = 0 to st.len - 1 do
      Bitset.iter_with count_edge st st.gsucc.(st.order.(i))
    done;
    st.sp <- 0;
    for i = 0 to st.len - 1 do
      let g = st.order.(i) in
      if st.indeg.(g) = 0 then push st g
    done;
    let removed = ref 0 in
    while st.sp > 0 do
      st.sp <- st.sp - 1;
      let g = st.stack.(st.sp) in
      st.topo.(g) <- !removed;
      st.at.(!removed) <- g;
      incr removed;
      Bitset.iter_with release_edge st st.gsucc.(g)
    done;
    st.order_state <- (if !removed = st.len then Valid else Cyclic)

  let acyclic st =
    if st.order_state = Unknown then topological_order st;
    st.order_state = Valid

  (* Kahn's algorithm over kernel edges, for groups loaded with [add]
     and [close] but not [finish]ed: whether the condensed graph would
     be acyclic, without building it — the edge sets are not needed for
     a single check.  The state must be loaded again before any other
     use. *)
  let release_kernel_edges st g =
    let k = ref st.head.(g) in
    while !k >= 0 do
      let vs = st.succs.(!k) in
      for i = 0 to Array.length vs - 1 do
        let h = st.group_of.(vs.(i)) in
        if h <> g then release_edge st h
      done;
      k := st.next.(!k)
    done

  let loaded_acyclic st =
    if st.loaded <> st.n then invalid ();
    Array.fill st.indeg 0 st.len 0;
    for v = 0 to st.n - 1 do
      let g = st.group_of.(v) and us = st.preds.(v) in
      for i = 0 to Array.length us - 1 do
        if st.group_of.(us.(i)) <> g then st.indeg.(g) <- st.indeg.(g) + 1
      done
    done;
    st.sp <- 0;
    for g = 0 to st.len - 1 do
      if st.indeg.(g) = 0 then push st g
    done;
    let removed = ref 0 in
    while st.sp > 0 do
      st.sp <- st.sp - 1;
      incr removed;
      release_kernel_edges st st.stack.(st.sp)
    done;
    st.order_state <- Unknown;
    !removed = st.len

  (* In a topological order, a group that reaches a seed sits before
     the last seed, and so does every group on a path from a seed to
     it: the forward search stops at the window's end, [bound].  The
     absorbed set is the same; only the search is shorter. *)
  let forward st h =
    Bitset.add st.seen h;
    if st.topo.(h) < st.bound then begin
      Bitset.add st.reach h;
      push st h
    end

  let backward st h =
    Bitset.remove st.reach h;
    Bitset.add st.mark h;
    push st h

  let add_group_members st g =
    let k = ref st.head.(g) in
    while !k >= 0 do
      Bitset.add st.kset !k;
      k := st.next.(!k)
    done

  let push_buf st k =
    st.buf.(st.nbuf) <- k;
    st.nbuf <- st.nbuf + 1

  let max_topo st g = if st.topo.(g) > st.bound then st.bound <- st.topo.(g)

  let absorb st =
    if st.order_state = Unknown then topological_order st;
    if st.order_state = Valid then begin
      st.bound <- 0;
      Bitset.iter_with max_topo st st.mark
    end
    else st.bound <- max_int;
    Bitset.clear st.reach;
    Bitset.clear st.seen;
    Bitset.union_into st.seen st.mark;
    st.sp <- 0;
    Bitset.iter_with push st st.mark;
    while st.sp > 0 do
      st.sp <- st.sp - 1;
      Bitset.iter_diff_with forward st st.gsucc.(st.stack.(st.sp)) st.seen
    done;
    Bitset.iter_with push st st.mark;
    while st.sp > 0 do
      st.sp <- st.sp - 1;
      Bitset.iter_inter_with backward st st.gpred.(st.stack.(st.sp)) st.reach
    done;
    Bitset.clear st.kset;
    Bitset.iter_with add_group_members st st.mark

  let verdict_of_kset st =
    st.nbuf <- 0;
    Bitset.iter_with push_buf st st.kset;
    Objective.verdict_of_sorted st.obj st.buf st.nbuf

  let merge st seeds =
    Bitset.clear st.mark;
    List.iter (Bitset.add st.mark) seeds;
    absorb st;
    verdict_of_kset st

  let merge2 st a b =
    Bitset.clear st.mark;
    Bitset.add st.mark a;
    Bitset.add st.mark b;
    absorb st;
    verdict_of_kset st

  let merged_group st = Bitset.to_list st.kset

  let group_verdict st g =
    Bitset.clear st.kset;
    add_group_members st g;
    verdict_of_kset st

  let append_cur st k = append st st.cur k

  let min_topo st g = if st.topo.(g) < st.cur then st.cur <- st.topo.(g)

  (* Keep the topological order across a merge: in the window of the
     absorbed groups' positions, the groups that reach them or are
     unrelated keep their relative order, then the merged group, then
     the groups reachable from it (the forward search's [reach]). *)
  let reorder st ~lo id =
    let w = ref lo and nr = ref 0 in
    for p = lo to st.bound do
      let x = st.at.(p) in
      if x >= 0 && not (Bitset.mem st.mark x) then
        if Bitset.mem st.reach x then begin
          st.stack.(!nr) <- x;
          incr nr
        end
        else begin
          st.at.(!w) <- x;
          st.topo.(x) <- !w;
          incr w
        end
    done;
    st.at.(!w) <- id;
    st.topo.(id) <- !w;
    incr w;
    for i = 0 to !nr - 1 do
      st.at.(!w) <- st.stack.(i);
      st.topo.(st.stack.(i)) <- !w;
      incr w
    done;
    for p = !w to st.bound do
      st.at.(p) <- -1
    done

  (* A merge's condensed edges come from the absorbed groups' sets: the
     merged group's successors are theirs outside the absorbed set
     ([below]), its predecessors likewise ([above]), and each neighbor
     trades the absorbed ids for the new one. *)
  let gather_edges st g =
    Bitset.union_into st.below st.gsucc.(g);
    Bitset.union_into st.above st.gpred.(g);
    Bitset.clear st.gsucc.(g);
    Bitset.clear st.gpred.(g)

  let relink_pred st h =
    Bitset.diff_into st.gpred.(h) st.mark;
    Bitset.add st.gpred.(h) st.cur

  let relink_succ st h =
    Bitset.diff_into st.gsucc.(h) st.mark;
    Bitset.add st.gsucc.(h) st.cur

  let commit st =
    st.cur <- st.n;
    if st.order_state = Valid then Bitset.iter_with min_topo st st.mark;
    let lo = st.cur in
    Bitset.clear st.below;
    Bitset.clear st.above;
    Bitset.iter_with gather_edges st st.mark;
    Bitset.diff_into st.below st.mark;
    Bitset.diff_into st.above st.mark;
    Bitset.iter_with release st st.mark;
    let id = fresh_id st in
    st.cur <- id;
    Bitset.iter_with append_cur st st.kset;
    Bitset.union_into st.gsucc.(id) st.below;
    Bitset.union_into st.gpred.(id) st.above;
    Bitset.iter_with relink_pred st st.below;
    Bitset.iter_with relink_succ st st.above;
    (* the merged group first, the survivors in order *)
    let j = ref 0 in
    for i = 0 to st.len - 1 do
      let g = st.order.(i) in
      if not (Bitset.mem st.mark g) then begin
        st.order.(!j) <- g;
        incr j
      end
    done;
    Array.blit st.order 0 st.order 1 !j;
    st.order.(0) <- id;
    st.len <- !j + 1;
    if st.order_state = Valid then reorder st ~lo id else st.order_state <- Unknown

  (* Path convexity of [kset] (paper Eq. 1.3, as
     {!Kf_graph.Exec_order.group_is_convex}): no other kernel both
     reachable from a member and reaching one. *)
  let convex_kset st =
    Bitset.clear st.below;
    Bitset.clear st.above;
    for i = 0 to st.nbuf - 1 do
      Bitset.union_into st.below st.desc.(st.buf.(i));
      Bitset.union_into st.above st.anc.(st.buf.(i))
    done;
    not (Bitset.intersects_outside st.below st.above ~outside:st.kset)

  let eject st k =
    let g = st.group_of.(k) in
    st.size.(g) > 1
    && begin
         Bitset.clear st.kset;
         add_group_members st g;
         Bitset.remove st.kset k;
         (verdict_of_kset st).Objective.feasible
         && convex_kset st
         && begin
              detach st g;
              (if st.head.(g) = k then st.head.(g) <- st.next.(k)
               else begin
                 let p = ref st.head.(g) in
                 while st.next.(!p) <> k do
                   p := st.next.(!p)
                 done;
                 st.next.(!p) <- st.next.(k)
               end);
              st.size.(g) <- st.size.(g) - 1;
              let id = singleton st k in
              attach st g;
              attach st id;
              st.order_state <- Unknown;
              (* [[k]] and the remainder first, the others in order *)
              let p = position st g in
              Array.blit st.order (p + 1) st.order (p + 2) (st.len - p - 1);
              Array.blit st.order 0 st.order 2 p;
              st.order.(0) <- id;
              st.order.(1) <- g;
              st.len <- st.len + 1;
              true
            end
       end

  (* Replace [g]'s members by singletons, in member order, into
     [order.(at ..)]; returns the next free position. *)
  let split_into st g at =
    let k = ref st.head.(g) and at = ref at in
    release st g;
    while !k >= 0 do
      let nk = st.next.(!k) in
      st.order.(!at) <- singleton st !k;
      incr at;
      k := nk
    done;
    !at

  let dissolve st g =
    let p = position st g and cnt = st.size.(g) in
    detach st g;
    Array.blit st.order (p + 1) st.order (p + cnt) (st.len - p - 1);
    ignore (split_into st g p : int);
    st.len <- st.len + cnt - 1;
    for i = p to p + cnt - 1 do
      attach st st.order.(i)
    done;
    st.order_state <- Unknown

  (* Kosaraju over list positions, with adjacency lists built kernel by
     kernel in successor order: the first multi-group component it
     reports (as positions, highest first) fixes the order in which
     [repair] visits cycles, and so the order of its output list. *)
  let first_cycle st =
    let ng = st.len in
    let pos = Array.make st.n 0 in
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
     infeasible, dissolve the cycle's groups into singletons, put first
     (a refinement never introduces new cycles). *)
  let rec repair st =
    if not (acyclic st) then
      match first_cycle st with
      | None -> ()
      | Some scc ->
          let ids = List.map (fun p -> st.order.(p)) scc in
          if (merge st ids).Objective.feasible then commit st
          else begin
            let survivors = List.filter (fun g -> not (List.mem g ids)) (List.init st.len (nth st)) in
            List.iter (detach st) ids;
            let at = List.fold_left (fun at g -> split_into st g at) 0 ids in
            List.iteri (fun i g -> st.order.(at + i) <- g) survivors;
            st.len <- at + List.length survivors;
            for i = 0 to at - 1 do
              attach st st.order.(i)
            done;
            st.order_state <- Unknown
          end;
          repair st

  (* ---- canonical output and plan keys ---------------------------------- *)

  (* Bucket the kernels by group, ascending; with [pending], the merge
     held in [kset] counts as applied (bucket [n]). *)
  let bucket st ~pending =
    Array.fill st.bhead 0 (st.n + 1) (-1);
    for k = 0 to st.n - 1 do
      let g = if pending && Bitset.mem st.kset k then st.n else st.group_of.(k) in
      if st.bhead.(g) < 0 then st.bhead.(g) <- k else st.bnext.(st.btail.(g)) <- k;
      st.btail.(g) <- k;
      st.bnext.(k) <- -1
    done

  let rec bucket_list st k = if k < 0 then [] else k :: bucket_list st st.bnext.(k)

  let canonical st =
    bucket st ~pending:false;
    let rec build k acc =
      if k < 0 then acc
      else if st.bhead.(st.group_of.(k)) = k then build (k - 1) (bucket_list st k :: acc)
      else build (k - 1) acc
    in
    build (st.n - 1) []

  (* The vertical plan's key ({!Plan.Sigbuf.encode_plan} of its
     single-plane packs): groups by smallest member, members ascending,
     [-1] between groups. *)
  let encode st ~pending =
    bucket st ~pending;
    Sigbuf.reset st.sb;
    for k = 0 to st.n - 1 do
      let g = if pending && Bitset.mem st.kset k then st.n else st.group_of.(k) in
      if st.bhead.(g) = k then begin
        if k > 0 then Sigbuf.push st.sb (-1);
        let m = ref k in
        while !m >= 0 do
          Sigbuf.push st.sb !m;
          m := st.bnext.(!m)
        done
      end
    done

  let plan_cost st ~pending =
    encode st ~pending;
    Objective.eval_encoded st.obj st.sb
end

let schedulable obj groups =
  let st = Partition.scratch obj in
  Partition.start st;
  Partition.add_groups st groups;
  Partition.loaded_acyclic st

let packs_schedulable obj packs =
  let st = Partition.scratch obj in
  Partition.start st;
  List.iter
    (fun pack ->
      List.iter (Partition.add_members st) pack;
      Partition.close st)
    packs;
  Partition.loaded_acyclic st

let repair_schedule obj groups =
  let st = Partition.of_groups obj groups in
  Partition.repair st;
  Partition.to_groups st

let absorbing_merge obj groups seed =
  let st = Partition.of_groups obj groups in
  let seeds = List.sort_uniq Int.compare (List.map (Partition.group_of st) seed) in
  if (Partition.merge st seeds).Objective.feasible then begin
    Partition.commit st;
    match Partition.to_groups st with
    | merged :: rest -> Some (merged, rest)
    | [] -> None
  end
  else None

let merge_pair obj groups a b = absorbing_merge obj groups (a @ b)

let random_plan obj rng ?merge_attempts n =
  let attempts = match merge_attempts with Some a -> a | None -> 2 * n in
  let st = Partition.scratch obj in
  Partition.start st;
  for k = 0 to n - 1 do
    Partition.add st k;
    Partition.close st
  done;
  Partition.finish st;
  for _ = 1 to attempts do
    if Partition.length st >= 2 then begin
      let g = Partition.nth st (Rng.int rng (Partition.length st)) in
      let c = Partition.kin_adjacent st g in
      if c > 0 then begin
        let partner = Partition.candidate st (Rng.int rng c) in
        let v = Partition.merge2 st g partner in
        (* Keep the merge only when the model likes it at least half the
           time; always-greedy initial populations collapse into one
           basin. *)
        if v.Objective.feasible && (v.Objective.cost < v.Objective.orig_sum || Rng.chance rng 0.25)
        then Partition.commit st
      end
    end
  done;
  Partition.canonical st

(* Falkenauer grouping crossover with dependency-aware repair: inject a
   crossing section of multi-member groups from the donor into the
   receiver, eliminate the receiver's groups disrupted by the injection,
   and reinsert the orphans — first as singletons, then greedily back
   into adjacent groups when the model approves.  The child is loaded
   into the scratch as the injected groups, the receiver's untouched
   groups, then the orphans. *)
let crossover obj rng ~receiver ~donor =
  match List.filter (fun g -> List.length g >= 2) donor with
  | [] -> receiver
  | donor_multi ->
      let count = 1 + Rng.int rng (max 1 (List.length donor_multi / 2)) in
      let injected = Rng.sample rng count (Array.of_list donor_multi) in
      let st = Partition.scratch obj in
      let inj = Bitset.create st.Partition.n in
      Array.iter (List.iter (Bitset.add inj)) injected;
      let touched g = List.exists (Bitset.mem inj) g in
      let orphans =
        List.concat_map
          (fun g -> if touched g then List.filter (fun k -> not (Bitset.mem inj k)) g else [])
          receiver
      in
      Partition.start st;
      Array.iter (Partition.add_group st) injected;
      List.iter (fun g -> if not (touched g) then Partition.add_group st g) receiver;
      List.iter (fun k -> Partition.add_group st [ k ]) orphans;
      Partition.finish st;
      (* Repair: pull each orphan back into a neighboring group when that
         lowers the projected total.  Usually the best improving merge is
         taken, but sometimes a random improving one — a deterministic
         repair drives every child into the same pairing basin. *)
      List.iter
        (fun k ->
          let own = Partition.group_of st k in
          if Partition.size st own = 1 then begin
            let improving = ref [] in
            for i = 0 to Partition.kin_adjacent st own - 1 do
              let g = Partition.candidate st i in
              let v = Partition.merge2 st own g in
              if v.Objective.feasible then begin
                let before =
                  Objective.group_cost obj [ k ] +. (Partition.group_verdict st g).Objective.cost
                in
                let delta = v.Objective.cost -. before in
                if delta < 0. then improving := (delta, g) :: !improving
              end
            done;
            match List.rev !improving with
            | [] -> ()
            | options ->
                let _, g =
                  if Rng.chance rng 0.7 then
                    List.fold_left
                      (fun acc o -> match (acc, o) with (d1, _), (d2, _) when d1 <= d2 -> acc | _ -> o)
                      (List.hd options) (List.tl options)
                  else Rng.choose rng (Array.of_list options)
                in
                ignore (Partition.merge2 st own g : Objective.verdict);
                Partition.commit st
          end)
        orphans;
      (* The injected groups can form condensation cycles with the
         receiver's surviving groups; restore schedulability. *)
      Partition.repair st;
      Partition.canonical st

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
  let st = Partition.of_groups obj groups in
  if Partition.eject st k then Some (Partition.to_groups st) else None

let mutate ~ops obj rng groups =
  let multi = List.filter (fun g -> List.length g >= 2) groups in
  match Rng.choose_list rng (if multi = [] then [ `Merge ] else ops) with
  | `Dissolve -> dissolve groups (Rng.choose rng (Array.of_list multi))
  | `Eject -> begin
      let victim = Rng.choose rng (Array.of_list multi) in
      let k = Rng.choose rng (Array.of_list victim) in
      match eject obj groups k with Some g -> g | None -> groups
    end
  | `Merge ->
      let st = Partition.of_groups obj groups in
      let g = Partition.nth st (Rng.int rng (Partition.length st)) in
      let c = Partition.kin_adjacent st g in
      if c = 0 then groups
      else begin
        let partner = Partition.candidate st (Rng.int rng c) in
        if (Partition.merge2 st g partner).Objective.feasible then begin
          Partition.commit st;
          Partition.to_groups st
        end
        else groups
      end

let kin_adjacent_groups obj groups group =
  let st = Partition.scratch obj in
  let nb = st.Partition.kset in
  Bitset.clear nb;
  List.iter (fun k -> Bitset.union_into nb st.Partition.kin.(k)) group;
  List.iter (Bitset.remove nb) group;
  List.filter (fun g -> g <> group && List.exists (Bitset.mem nb) g) groups

(* Relocation on the partition state: for each kernel (in the pass's
   starting list order), the candidates are the kernel alone (ejected
   when it has company) and merged into each kin-adjacent group; the
   first cheapest candidate wins when it improves the plan.  Candidates
   are costed as held merges; a losing eject is undone by loading the
   plan back. *)
let relocation_pass st =
  let open Partition in
  let improved = ref false in
  List.iter
    (fun k ->
      let base = plan_cost st ~pending:false in
      let saved = if size st (group_of st k) > 1 then Some (to_groups st) else None in
      if saved = None || eject st k then begin
        let own = group_of st k in
        let best = ref (plan_cost st ~pending:false) and best_h = ref (-1) in
        for i = 0 to kin_adjacent st own - 1 do
          let h = candidate st i in
          if (merge2 st own h).Objective.feasible then begin
            let c = plan_cost st ~pending:true in
            if not (!best <= c) then begin
              best := c;
              best_h := h
            end
          end
        done;
        if !best < base -. 1e-15 then begin
          if !best_h >= 0 then begin
            ignore (merge2 st own !best_h : Objective.verdict);
            commit st
          end;
          improved := true
        end
        else Option.iter (load st) saved
      end)
    (List.concat (to_groups st));
  !improved

(* Exchange one kernel between two multi-member groups.  Relocation alone
   cannot repair mispaired groups ({a,c},{b,d} vs {a,b},{c,d}) because the
   intermediate states do not improve.  A group of the pass's lists is
   still in the plan when some group has exactly its members, in its
   member order. *)
let swap_pass st =
  let open Partition in
  let improved = ref false in
  let live g =
    let id = group_of st (List.hd g) in
    size st id = List.length g && members st id = g
  in
  let multi () = List.filter (fun g -> List.length g >= 2) (to_groups st) in
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
                        let base = plan_cost st ~pending:false in
                        let saved = to_groups st in
                        let r2 = List.filter (( <> ) k2) g2 and r1 = List.filter (( <> ) k1) g1 in
                        if eject st k1 then
                          if
                            eject st k2 && live r2
                            && (merge2 st (group_of st k1) (group_of st (List.hd r2))).Objective.feasible
                            && begin
                                 commit st;
                                 live r1
                               end
                            && (merge2 st (group_of st k2) (group_of st (List.hd r1))).Objective.feasible
                            && begin
                                 commit st;
                                 plan_cost st ~pending:false < base -. 1e-15
                               end
                          then improved := true
                          else load st saved
                      end)
                    g2)
                g1)
          (multi ()))
    (multi ());
  !improved

let local_refine ?(max_passes = 3) obj groups =
  let st = Partition.of_groups obj groups in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    incr passes;
    improved := relocation_pass st;
    (* The quadratic swap neighborhood only pays on small instances. *)
    if st.Partition.n <= 48 then improved := swap_pass st || !improved
  done;
  Partition.canonical st

let enforce_profitability obj groups =
  Plan.canonical_groups
    (List.concat_map
       (fun g ->
         if List.length g >= 2 && not (Objective.group_profitable obj g) then
           List.map (fun k -> [ k ]) g
         else [ g ])
       groups)
