(** Fixed-universe bit sets.

    The exact set-partition solver and the constraint system manipulate many
    subsets of the kernel universe (up to a few hundred elements); this is a
    compact imperative representation with the usual set algebra. *)

type t

val create : int -> t
(** [create n] is the empty subset of universe [{0, …, n-1}]. *)

val universe_size : t -> int

val singleton : int -> int -> t
(** [singleton n i] is [{i}] in universe size [n]. *)

val of_list : int -> int list -> t

val to_list : t -> int list
(** Members in increasing order. *)

val copy : t -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is true when every member of [a] is in [b]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val disjoint : t -> t -> bool
val union_into : t -> t -> unit
(** [union_into dst src] adds all members of [src] to [dst]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] keeps only the members of [dst] that are in
    [src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] removes the members of [src] from [dst]. *)

val clear : t -> unit
(** Remove every member in place (for scratch reuse on hot paths). *)

val intersects_outside : t -> t -> outside:t -> bool
(** [intersects_outside a b ~outside] is [not (is_empty (diff (inter a b)
    outside))], computed without allocating the intermediate sets — the
    path-convexity test of the allocation-free evaluator. *)

val iter : (int -> unit) -> t -> unit
val iter_with : ('a -> int -> unit) -> 'a -> t -> unit
(** [iter_with f env t] is [iter (f env) t] without building the
    closure: with a top-level [f], a walk allocates nothing. *)

val iter_inter_with : ('a -> int -> unit) -> 'a -> t -> t -> unit
(** [iter_inter_with f env a b] visits the members of [a ∩ b], lowest
    first.  Each word is read when the walk reaches it, so [f] may
    remove visited members from [b] or add members to it. *)

val iter_diff_with : ('a -> int -> unit) -> 'a -> t -> t -> unit
(** [iter_diff_with f env a b] visits the members of [a] not in [b],
    lowest first, under the same rule. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val choose : t -> int
(** Smallest member.  @raise Not_found when empty. *)

val compare : t -> t -> int
(** Total order suitable for [Map]/[Set] keys. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
