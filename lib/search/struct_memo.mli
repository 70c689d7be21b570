(** Memoization of the search's pure structural queries.

    Kinship adjacency asks, for one group, which kernels share data with
    its members: a pure function of the metadata and the group, asked
    again and again for the same groups (over nine in ten probes hit).
    The table caches a group's kinship neighbor set under the group's
    canonical (sorted) signature; the order-sensitive candidate list is
    filtered from the live partition on every call, because downstream
    RNG draws depend on its order.  The other structural operators (the
    absorbing merge, schedulability, repair) run on the incremental
    partition state of {!Grouping.Partition} and are not memoized: on
    that state a merge costs less than a key encoding and probe.

    Sharing discipline (data-oriented, replacing the former striped
    mutexes): each memo is a read-only {e base} table shared by every
    domain plus one private single-writer table per domain that has
    probed it.  Probes take no lock at all — the base is mutated only at
    quiescent merge points ({!merge_memos}, called while all workers are
    parked at the pool's generation barrier, whose mutex handshake
    publishes the writes), and a domain's private table is touched only
    by its owner.  Keys are flat int arrays encoded into a per-domain
    {!Kf_fusion.Plan.Sigbuf} arena and hashed with the fixed polynomial
    {!Kf_fusion.Plan.signature_hash} (immune to [OCAMLRUNPARAM=R]);
    probes compare against the arena prefix in place ({e borrowed} keys)
    and copy the key out only on a miss.  Values are immutable and pure
    functions of their keys, so a key computed concurrently by several
    domains merges into the base once and which domain's value survives
    is unobservable — memoization stays invisible to the search except
    in time. *)

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

type 'a table
(** A memo table from int-array signatures to ['a] with the base +
    per-domain-locals sharing discipline. *)

val table : ?shards:int -> string -> 'a table
(** [table name] creates an empty memo table; [name] labels its
    process-wide metrics counters ([struct_memo.<name>.hits] /
    [.misses], flushed at merge points rather than per probe).
    [?shards] is accepted for compatibility and ignored — probes are
    lock-free, there are no stripes anymore. *)

val find_group : 'a table -> int list -> (unit -> 'a) -> 'a
(** Probe keyed by one group's canonical signature
    ({!Kf_fusion.Plan.group_signature}).  On a miss the computation runs
    unlocked and the result is cached in the calling domain's private
    table; concurrent duplicate misses may compute the value more than
    once, which is harmless for pure computations. *)

val merge_table : 'a table -> unit
(** Fold every domain's private entries into the shared base
    (insert-if-absent) and clear the private tables.  Must only be
    called at a quiescent point — no concurrent probes. *)

val table_stats : 'a table -> int * int
(** [(hits, misses)] accumulated over all domains, live. *)

type memos = {
  kin : Kf_util.Bitset.t table;
      (** a group's kinship neighbor set, keyed by the sorted group; the
          cached bitset is read-only *)
  succs : int array array;
  preds : int array array;
      (** per-kernel direct successors / predecessors of the (fixed)
          execution DAG in increasing order, precomputed once for the
          partition state of {!Grouping.Partition} *)
}
(** The operator memos (and fixed adjacency) every objective owns. *)

val create_memos : succs:int array array -> preds:int array array -> unit -> memos

val merge_memos : memos -> unit
(** {!merge_table} over every memo.  Call at generation barriers. *)

val memo_stats : memos -> (string * (int * int)) list
(** [(name, (hits, misses))] per table, in a fixed order. *)
