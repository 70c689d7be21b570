(** Fusion plans: partitions of the original kernels into groups, each
    group becoming one new kernel (or staying original when a singleton).

    This is the decision variable of the paper's optimization problem
    (Fig. 4): [x_ij = 1] iff kernel [i] belongs to group [j].  The checker
    enforces the structural constraints — (1.2) each kernel in exactly one
    group, (1.3) path convexity, (1.5) kinship connectivity — and, given a
    device, the resource constraints (1.6) SMEM capacity and (1.7) register
    bound. *)

type t
(** A validated-shape partition (disjointness and completeness are
    guaranteed by construction; the other constraints are checked by
    {!validate}), plus its launch composition: the groups are partitioned
    into {e packs}, each pack being one launch.  A singleton pack is an
    ordinary vertical launch; a multi-plane pack runs its member groups
    ({e planes}) side by side as per-plane sub-grids of one horizontal
    launch (HFuse, arXiv 2007.01277). *)

type mode = Vertical | Horizontal | Mixed

val mode : int list list -> mode
(** Composition mode of one pack: [Vertical] for a single plane,
    [Horizontal] when every plane is a single original kernel, [Mixed]
    when vertically fused planes are packed horizontally. *)

val of_groups : n:int -> int list list -> t
(** [of_groups ~n groups] builds a plan over kernels [0..n-1] with every
    group in its own (vertical) pack.
    @raise Invalid_argument unless the groups are non-empty, disjoint and
    cover exactly [0..n-1]. *)

val of_composed : n:int -> int list list list -> t
(** [of_composed ~n comps] builds a plan from launch packs; the vertical
    partition is the set of all planes.
    @raise Invalid_argument on empty packs/planes or when the planes do
    not partition [0..n-1]. *)

val identity : int -> t
(** The unfused plan: every kernel alone, every group its own pack. *)

val groups : t -> int list list
(** Groups in canonical order (sorted members; groups ordered by smallest
    member). *)

val composed : t -> int list list list
(** Launch packs in canonical order (planes sorted by head within a pack,
    packs sorted by the head of their first plane).  All-vertical plans
    return every group as a singleton pack. *)

val num_kernels : t -> int
val num_groups : t -> int

val num_units : t -> int
(** Number of launches ([= List.length (composed t)]); equals
    [num_groups] for all-vertical plans. *)

val is_vertical : t -> bool
(** Whether every pack is a single plane (no horizontal fusion). *)

val horizontal_pack_count : t -> int
(** Number of packs with two or more planes. *)

val horizontal_plane_count : t -> int
(** Number of planes belonging to multi-plane packs. *)

val group_of : t -> int -> int list
(** The group containing a kernel. *)

val fused_kernel_count : t -> int
(** Number of groups with two or more members. *)

val fused_member_count : t -> int
(** Number of original kernels belonging to multi-member groups (the
    paper's "117 out of the 142"). *)

type violation =
  | Not_convex of int list  (** group breaks constraint (1.3) *)
  | Not_kin_connected of int list  (** group breaks constraint (1.5) *)
  | Smem_overflow of int list * int  (** group, required bytes (1.6) *)
  | Register_overflow of int list * int  (** group, required registers (1.7) *)
  | Not_schedulable
      (** the condensed per-group dependency graph is cyclic: no valid
          invocation order of the new kernels exists.  Per-group convexity
          does not imply this whole-plan property, so it is checked
          separately (a strengthening of the paper's constraint set). *)
  | Spans_sync_point of int list
      (** the group crosses a host transfer / synchronization boundary
          (paper §II-C): the transfer must execute between its members *)
  | Vertical_flow of int list
      (** an internal flow dependency is consumed through a vertical
          stencil — per-plane SMEM staging cannot provide the producer's
          future planes, so the group is unfusable *)
  | Planes_dependent of int list list
      (** a horizontal pack has a data edge between two of its planes:
          planes run concurrently in one launch, so they must be
          pairwise order-independent *)

val validate :
  ?device:Kf_gpu.Device.t ->
  meta:Kf_ir.Metadata.t ->
  exec:Kf_graph.Exec_order.t ->
  t ->
  violation list
(** Structural constraints always; resource constraints when [device] is
    given (building each group's fused kernel to cost it). *)

val is_feasible :
  device:Kf_gpu.Device.t -> meta:Kf_ir.Metadata.t -> exec:Kf_graph.Exec_order.t -> t -> bool

val is_sorted_strict : int list -> bool
(** Whether the list is strictly increasing (sorted, duplicate-free) —
    the precondition under which canonicalization can reuse it as-is. *)

val canonical_group : int list -> int list
(** Members sorted ascending and deduplicated; an already strictly
    sorted group is returned as-is. *)

val canonical_groups : int list list -> int list list
(** Canonical form of a raw partition: members sorted ascending within
    each group, groups ordered by smallest member.  Permutations of the
    same partition map to the same canonical form, which is what makes
    the signatures below usable as cache keys. *)

val canonical_comps : int list list list -> int list list list
(** Canonical form of a raw pack list: {!canonical_groups} one level up —
    members sorted within planes, planes sorted by head within packs,
    packs sorted by the head of their first plane. *)

val planes_independent : exec:Kf_graph.Exec_order.t -> int list list -> bool
(** Whether every cross-plane kernel pair is order-independent — the
    horizontal legality rule. *)

val group_signature : int list -> int array
(** Sorted member ids — the canonical per-group signature (two member
    orderings of the same group share one signature). *)

val plan_signature : int list list -> int array
(** Canonical whole-plan signature: group signatures in canonical group
    order, separated by [-1] (kernel ids are non-negative, so the
    separator is unambiguous).  Permuted-but-equal plans share one
    signature. *)

val signature_hash : int array -> int
(** Fixed polynomial hash of a signature.  Deliberately not
    [Hashtbl.hash]: cache striping keyed on this hash must be immune to
    [OCAMLRUNPARAM=R], so the hash depends only on the elements. *)

val group_hash : int list -> int
(** [signature_hash (group_signature g)]. *)

(** Arena-backed signature encoding for the evaluation hot path.

    A [Sigbuf.t] is a reusable scratch buffer owned by one domain:
    encoding writes the signature ints into the buffer in place (growing
    it geometrically, so steady state allocates nothing), {!Sigbuf.hash}
    folds the same polynomial as {!signature_hash} over the prefix, and
    {!Sigbuf.extract} copies the prefix out only when the key must
    outlive the probe (a cache miss).

    A plan is a list of launch packs.  Its encoding lists the canonical
    packs ({!canonical_comps}) separated by [-1], the planes of a pack
    separated by [-3].  A plan of single-plane packs therefore encodes
    byte-identically to {!plan_signature} of its groups, and a
    single-plane pack's key is its group's {!group_signature}: vertical
    keys interoperate with signature arrays persisted in snapshots, and
    multi-plane keys live in a disjoint keyspace.

    Not thread-safe: one [Sigbuf.t] per domain.  The buffer contents are
    invalidated by the next [encode_*] call. *)
module Sigbuf : sig
  type t

  val create : unit -> t

  val encode_plan : t -> int list list list -> unit
  (** Encode a plan's canonical signature and keep its canonical packs
      for {!canonical}.  Packs that are already canonical are reused,
      so encoding a canonical plan allocates nothing once the buffers
      have grown to size. *)

  val canonical : t -> int list list list
  (** The canonical packs captured by the last {!encode_plan} (rebuilt
      from scratch space; allocates the spine only). *)

  val encode_group : t -> int list -> unit
  (** Encode one group's key ({!group_signature}) — the verdict-cache
      key of a group and of a single-plane pack. *)

  val encode_pack : t -> int list list -> unit
  (** Encode one multi-plane pack's key: its canonical plane signatures
      joined by [-3].
      @raise Invalid_argument on a pack of fewer than two planes (those
      key by their group, {!encode_group}). *)

  val reset : t -> unit
  (** Empty the buffer, for a caller that encodes a key with {!push}. *)

  val push : t -> int -> unit
  (** Append one int to the encoded prefix.  A caller building a key
      this way must produce exactly what the [encode_*] function of the
      same key would. *)

  val decode : int array -> int list list list
  (** The canonical packs of a plan key ({!encode_plan}'s output). *)

  val length : t -> int

  val unsafe_buf : t -> int array
  (** The backing buffer; only indices [0, length t) are meaningful.
      Borrowed: invalidated by the next [encode_*] call on this
      buffer. *)

  val hash : t -> int
  (** [signature_hash] of the encoded prefix, computed in place. *)

  val extract : t -> int array
  (** Owned copy of the encoded prefix. *)
end

val equal : t -> t -> bool
(** Equality as partitions (group order and member order irrelevant). *)

val compare : t -> t -> int

val violation_group : violation -> int list option
(** The offending group, when the violation is group-local
    ([Not_schedulable] and [Planes_dependent] are composition-level
    properties: dropping the composition — rebuilding all-vertical via
    {!of_groups} — clears them without dissolving any group). *)

val pp : Format.formatter -> t -> unit
val pp_violation : Format.formatter -> violation -> unit
