module Metadata = Kf_ir.Metadata
module Device = Kf_gpu.Device
module Exec_order = Kf_graph.Exec_order

type t = {
  n : int;
  groups : int list list; (* canonical vertical partition *)
  comps : int list list list;
      (* canonical launch packs over [groups]: each pack is a list of
         planes, each plane is exactly one vertical group.  A singleton
         pack is an ordinary vertical launch; a multi-plane pack executes
         its planes as per-plane sub-grids of one horizontal launch
         (HFuse, arXiv 2007.01277).  All-vertical plans have every group
         in its own pack, which keeps every legacy code path (and every
         signature) byte-identical. *)
}

type mode = Vertical | Horizontal | Mixed

(* Int-specialized and allocation-light: groups flowing through the
   search are almost always already sorted (bitset extractions,
   previously normalized plans), in which case the input list is reused
   instead of re-sorted.  Strictly increasing implies duplicate-free, so
   the fast path matches [List.sort_uniq]. *)
let rec is_sorted_strict : int list -> bool = function
  | a :: (b :: _ as tl) -> a < b && is_sorted_strict tl
  | _ -> true

let canonical_group g = if is_sorted_strict g then g else List.sort_uniq Int.compare g
let by_head a b = Int.compare (List.hd a) (List.hd b)
let canonical_groups groups = List.sort by_head (List.map canonical_group groups)

(* Canonical form of a pack list: planes sorted within a pack by head,
   packs sorted by the head of their first plane.  Mirrors
   [canonical_groups] one level up, so an all-singleton composition
   canonicalizes to exactly the canonical group order. *)
let canonical_comps comps =
  List.sort
    (fun a b -> by_head (List.hd a) (List.hd b))
    (List.map canonical_groups comps)

let mode pack =
  match pack with
  | [ _ ] -> Vertical
  | planes ->
      if List.for_all (function [ _ ] -> true | _ -> false) planes then Horizontal else Mixed

(* Signatures are flat int arrays: member ids in ascending order, groups in
   canonical order, [-1] between groups.  Kernel ids are non-negative, so
   the separator is unambiguous and two plans share a signature exactly
   when they are equal as partitions. *)
let group_signature group = Array.of_list (canonical_group group)

let plan_signature groups =
  let canon = canonical_groups groups in
  let len =
    List.fold_left (fun acc g -> acc + List.length g + 1) 0 canon
  in
  let sig_ = Array.make (max 0 (len - 1)) (-1) in
  let i = ref 0 in
  List.iteri
    (fun gi g ->
      if gi > 0 then incr i;
      List.iter
        (fun k ->
          sig_.(!i) <- k;
          incr i)
        g)
    canon;
  sig_

(* Deliberately not Hashtbl.hash: signature hashes select cache shards and
   must not depend on runtime hashing parameters (OCAMLRUNPARAM=R), so a
   plain polynomial over the elements keeps striping reproducible
   everywhere (same scheme as the objective's string-key shard hash). *)
let signature_hash sig_ =
  let h = ref 17 in
  for i = 0 to Array.length sig_ - 1 do
    h := ((!h * 31) + Array.unsafe_get sig_ i + 2) land max_int
  done;
  !h

let group_hash group = signature_hash (group_signature group)

(* Arena-backed signature encoding.  The search evaluates tens of
   thousands of offspring per second; building a fresh [plan_signature]
   array (plus the canonicalized pack list feeding it) for every cache
   probe is pure GC pressure on the hottest path.  A [Sigbuf.t] is a
   per-domain scratch buffer the probe encodes into: the encoded ints
   live in one growable array that is reused across probes, the hash is
   computed over the prefix in place, and an owned copy is extracted
   only on a cache miss (when the key must outlive the probe).

   Plans are launch packs.  A plan encodes its packs in canonical order
   separated by [-1], the planes of one pack separated by [-3].  A
   single-plane pack therefore encodes exactly as its group, and a plan
   of single-plane packs exactly as {!plan_signature} of its groups, so
   arena-encoded keys interoperate with signature arrays persisted in
   snapshots; multi-plane keys live in a disjoint keyspace. *)
module Sigbuf = struct
  type t = {
    mutable buf : int array;  (* encoded signature prefix, [0, len) *)
    mutable len : int;
    mutable packs : int list list array;  (* canonical packs of the last
                                             [encode_plan], sorted by head *)
    mutable n_packs : int;
  }

  let create () = { buf = Array.make 64 0; len = 0; packs = Array.make 16 []; n_packs = 0 }

  let ensure t n =
    let cap = Array.length t.buf in
    if n > cap then begin
      let cap' = ref (cap * 2) in
      while n > !cap' do
        cap' := !cap' * 2
      done;
      let buf = Array.make !cap' 0 in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let push t x =
    ensure t (t.len + 1);
    t.buf.(t.len) <- x;
    t.len <- t.len + 1

  (* Recursive loops rather than [List.iter (push t)], whose partial
     application would allocate a closure per call. *)
  let rec push_members t = function
    | [] -> ()
    | k :: tl ->
        push t k;
        push_members t tl

  let rec push_planes t = function
    | [] -> ()
    | [ g ] -> push_members t g
    | g :: tl ->
        push_members t g;
        push t (-3);
        push_planes t tl

  (* Whether a pack is already canonical: every plane strictly sorted and
     planes strictly increasing by head.  Canonical packs are reused
     as-is, which is what keeps a re-encoded plan allocation-free. *)
  let rec canonical_pack_p = function
    | [] -> true
    | [ g ] -> is_sorted_strict g
    | g :: (g' :: _ as tl) -> is_sorted_strict g && List.hd g < List.hd g' && canonical_pack_p tl

  let canonical_pack p = if canonical_pack_p p then p else canonical_groups p

  let encode_group t group =
    t.len <- 0;
    push_members t (canonical_group group)

  let encode_pack t planes =
    match planes with
    | [] | [ _ ] -> invalid_arg "Plan.Sigbuf.encode_pack: a pack key needs two planes"
    | _ ->
        t.len <- 0;
        push_planes t (canonical_pack planes)

  (* Insertion sort by the head of each pack's first plane.  Strict [>]
     keeps equal heads in input order, matching the stable [List.sort] of
     [canonical_comps] (heads are unique in disjoint plans anyway). *)
  let rec insert_packs t = function
    | [] -> ()
    | p :: tl ->
        let p = canonical_pack p in
        if t.n_packs >= Array.length t.packs then begin
          let packs = Array.make (2 * Array.length t.packs) [] in
          Array.blit t.packs 0 packs 0 t.n_packs;
          t.packs <- packs
        end;
        let h = List.hd (List.hd p) in
        let i = ref t.n_packs in
        while !i > 0 && List.hd (List.hd t.packs.(!i - 1)) > h do
          t.packs.(!i) <- t.packs.(!i - 1);
          decr i
        done;
        t.packs.(!i) <- p;
        t.n_packs <- t.n_packs + 1;
        insert_packs t tl

  let encode_plan t packs =
    t.len <- 0;
    t.n_packs <- 0;
    insert_packs t packs;
    for i = 0 to t.n_packs - 1 do
      if i > 0 then push t (-1);
      push_planes t t.packs.(i)
    done

  let reset t =
    t.len <- 0;
    t.n_packs <- 0

  (* Split a plan key back into its canonical packs: [-1] ends a pack,
     [-3] a plane. *)
  let decode key =
    let rec go i plane planes packs =
      if i < 0 then (plane :: planes) :: packs
      else
        match key.(i) with
        | -1 -> go (i - 1) [] [] ((plane :: planes) :: packs)
        | -3 -> go (i - 1) [] (plane :: planes) packs
        | k -> go (i - 1) (k :: plane) planes packs
    in
    if Array.length key = 0 then [] else go (Array.length key - 1) [] [] []

  let length t = t.len
  let unsafe_buf t = t.buf

  let hash t =
    let h = ref 17 in
    let buf = t.buf in
    for i = 0 to t.len - 1 do
      h := ((!h * 31) + buf.(i) + 2) land max_int
    done;
    !h

  let extract t = Array.sub t.buf 0 t.len

  let canonical t =
    let rec build i acc = if i < 0 then acc else build (i - 1) (t.packs.(i) :: acc) in
    build (t.n_packs - 1) []
end

let of_groups ~n groups =
  if List.exists (( = ) []) groups then invalid_arg "Plan.of_groups: empty group";
  let canon = canonical_groups groups in
  let seen = Array.make n false in
  List.iter
    (fun g ->
      List.iter
        (fun k ->
          if k < 0 || k >= n then
            invalid_arg (Printf.sprintf "Plan.of_groups: kernel id %d out of [0,%d)" k n);
          if seen.(k) then
            invalid_arg (Printf.sprintf "Plan.of_groups: kernel %d in two groups" k);
          seen.(k) <- true)
        g)
    canon;
  Array.iteri
    (fun k covered ->
      if not covered then invalid_arg (Printf.sprintf "Plan.of_groups: kernel %d unassigned" k))
    seen;
  (* Duplicates within a group were silently removed by sort_uniq; reject
     them instead, they indicate a caller bug. *)
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  if total <> n then invalid_arg "Plan.of_groups: duplicate kernel within a group";
  { n; groups = canon; comps = List.map (fun g -> [ g ]) canon }

let of_composed ~n comps =
  if List.exists (( = ) []) comps then invalid_arg "Plan.of_composed: empty pack";
  if List.exists (List.exists (( = ) [])) comps then
    invalid_arg "Plan.of_composed: empty plane";
  let ccomps = canonical_comps comps in
  let base = of_groups ~n (List.concat ccomps) in
  { base with comps = ccomps }

let identity n =
  let groups = List.init n (fun k -> [ k ]) in
  { n; groups; comps = List.map (fun g -> [ g ]) groups }

let groups t = t.groups
let composed t = t.comps
let num_kernels t = t.n
let num_groups t = List.length t.groups
let num_units t = List.length t.comps
let is_vertical t = List.for_all (function [ _ ] -> true | _ -> false) t.comps

let horizontal_pack_count t =
  List.length (List.filter (fun pack -> List.length pack >= 2) t.comps)

let horizontal_plane_count t =
  List.fold_left
    (fun acc pack -> if List.length pack >= 2 then acc + List.length pack else acc)
    0 t.comps

let group_of t k =
  match List.find_opt (fun g -> List.mem k g) t.groups with
  | Some g -> g
  | None -> invalid_arg "Plan.group_of: unknown kernel"

let fused_kernel_count t = List.length (List.filter (fun g -> List.length g >= 2) t.groups)

let fused_member_count t =
  List.fold_left
    (fun acc g -> if List.length g >= 2 then acc + List.length g else acc)
    0 t.groups

type violation =
  | Not_convex of int list
  | Not_kin_connected of int list
  | Smem_overflow of int list * int
  | Register_overflow of int list * int
  | Not_schedulable
  | Spans_sync_point of int list
  | Vertical_flow of int list
  | Planes_dependent of int list list

(* Schedulability condenses by launch *unit* — the pack, not the group:
   a horizontal pack is one launch, so its members must admit a single
   position in the host invocation order.  For all-vertical plans the
   units are exactly the groups, i.e. the historical behavior. *)
let schedulable ~exec t =
  let units = Array.of_list (List.map List.concat t.comps) in
  let unit_of = Array.make t.n (-1) in
  Array.iteri (fun ui u -> List.iter (fun k -> unit_of.(k) <- ui) u) units;
  let module Dag = Kf_graph.Dag in
  let cond = Dag.create (Array.length units) in
  let dag = Exec_order.dag exec in
  for u = 0 to Dag.num_nodes dag - 1 do
    List.iter
      (fun v ->
        let gu = unit_of.(u) and gv = unit_of.(v) in
        if gu <> gv then Dag.add_edge cond gu gv)
      (Dag.succs dag u)
  done;
  Dag.is_acyclic cond

(* Horizontal legality (HFuse): planes of one pack run concurrently as
   sub-grids of one launch, so no data may flow between them — every
   cross-plane kernel pair must be order-independent. *)
let planes_independent ~exec planes =
  let rec check = function
    | [] | [ _ ] -> true
    | g :: rest ->
        List.for_all
          (fun g' ->
            List.for_all
              (fun a -> List.for_all (fun b -> Exec_order.independent exec a b) g')
              g)
          rest
        && check rest
  in
  check planes

let validate ?device ~meta ~exec t =
  let violations = ref [] in
  if not (schedulable ~exec t) then violations := Not_schedulable :: !violations;
  List.iter
    (fun pack ->
      if List.length pack >= 2 && not (planes_independent ~exec pack) then
        violations := Planes_dependent pack :: !violations)
    t.comps;
  List.iter
    (fun g ->
      if List.length g >= 2 then begin
        if not (Exec_order.group_is_convex exec g) then violations := Not_convex g :: !violations;
        if Exec_order.group_spans_sync exec g then violations := Spans_sync_point g :: !violations;
        if not (Metadata.kinship_connected meta g) then
          violations := Not_kin_connected g :: !violations;
        match device with
        | None -> ()
        | Some device ->
            let f = Fused.build ~device ~meta ~exec ~group:g in
            if f.Fused.vertical_hazard then violations := Vertical_flow g :: !violations;
            if f.Fused.smem_bytes_per_block > device.Device.smem_per_smx then
              violations := Smem_overflow (g, f.Fused.smem_bytes_per_block) :: !violations;
            if f.Fused.registers_per_thread >= device.Device.max_registers_per_thread then
              violations := Register_overflow (g, f.Fused.registers_per_thread) :: !violations
      end)
    t.groups;
  List.rev !violations

let is_feasible ~device ~meta ~exec t = validate ~device ~meta ~exec t = []

let equal a b = a.n = b.n && a.groups = b.groups && a.comps = b.comps

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.groups b.groups in
    if c <> 0 then c else Stdlib.compare a.comps b.comps

(* Multi-plane packs print their planes joined by " + "; single-plane
   packs print exactly as groups always have, so all-vertical plans
   render byte-identically to the historical format. *)
let pp ppf t =
  let group g = String.concat "," (List.map string_of_int g) in
  Format.fprintf ppf "{%s}"
    (String.concat " | "
       (List.map (fun pack -> String.concat " + " (List.map group pack)) t.comps))

let violation_group = function
  | Not_convex g
  | Not_kin_connected g
  | Smem_overflow (g, _)
  | Register_overflow (g, _)
  | Spans_sync_point g
  | Vertical_flow g ->
      Some g
  | Planes_dependent _ | Not_schedulable -> None

let pp_violation ppf v =
  let group g = String.concat "," (List.map string_of_int g) in
  match v with
  | Not_convex g -> Format.fprintf ppf "group [%s] is not path-convex" (group g)
  | Not_kin_connected g -> Format.fprintf ppf "group [%s] is not kinship-connected" (group g)
  | Smem_overflow (g, b) -> Format.fprintf ppf "group [%s] needs %d B of SMEM" (group g) b
  | Register_overflow (g, r) -> Format.fprintf ppf "group [%s] needs %d registers" (group g) r
  | Not_schedulable -> Format.fprintf ppf "no valid invocation order (cyclic group dependencies)"
  | Spans_sync_point g ->
      Format.fprintf ppf "group [%s] crosses a host synchronization point" (group g)
  | Vertical_flow g ->
      Format.fprintf ppf "group [%s] consumes internal data through a vertical stencil" (group g)
  | Planes_dependent planes ->
      Format.fprintf ppf "horizontal pack [%s] has data edges between planes"
        (String.concat " + " (List.map group planes))
