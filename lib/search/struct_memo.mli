(** The signature-keyed open-addressing table under the objective's
    caches and the search's dedup sets, and the fixed per-kernel
    structure the partition state reads.

    No structural query is memoized: a group's kinship neighbors are the
    union of precomputed per-kernel rows, which costs less than a key
    encoding and probe, and the other structural operators (the
    absorbing merge, schedulability, repair) run on the incremental
    partition state of {!Grouping.Partition}.  Keys are flat int arrays hashed
    with the fixed polynomial {!Kf_fusion.Plan.signature_hash} (immune
    to [OCAMLRUNPARAM=R]); probes compare against a borrowed buffer
    prefix in place. *)

(** The underlying unsynchronized open-addressing table (hash-once,
    stored-hash rejection, linear probing, no tombstones), exposed for
    single-owner uses such as the per-island offspring dedup set.  Not
    thread-safe. *)
module Sig_tbl : sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** [capacity] is rounded up to a power of two (default 512). *)

  val count : 'a t -> int
  val clear : 'a t -> unit

  val find_pre : 'a t -> buf:int array -> len:int -> hash:int -> 'a option
  (** Probe with the borrowed key [buf.(0 .. len-1)]; [hash] must be
      {!Kf_fusion.Plan.signature_hash} of that prefix (e.g.
      {!Kf_fusion.Plan.Sigbuf.hash}). *)

  val mem_pre : 'a t -> buf:int array -> len:int -> hash:int -> bool

  val add : 'a t -> int array -> hash:int -> 'a -> unit
  (** Insert an {e owned} key (replaces the value if the key exists). *)

  val iter : (int array -> hash:int -> 'a -> unit) -> 'a t -> unit
end

type memos = {
  succs : int array array;
  preds : int array array;
      (** per-kernel direct successors / predecessors of the (fixed)
          execution DAG in increasing order *)
  kin : Kf_util.Bitset.t array;
      (** per-kernel kinship neighbors ({!Kf_ir.Metadata.kin_neighbors});
          a group's neighbor set is the union of its members' rows *)
  desc : Kf_util.Bitset.t array;
  anc : Kf_util.Bitset.t array;
      (** per-kernel descendants / ancestors in the execution DAG *)
}
(** The fixed per-kernel structure every objective precomputes once for
    the partition state of {!Grouping.Partition}. *)

val memo_stats : memos -> (string * (int * int)) list
(** [(name, (hits, misses))] per memo table: there is none, so the list
    is empty.  It stays for readers of the per-table counters. *)
