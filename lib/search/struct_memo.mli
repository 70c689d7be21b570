(** Memoization of the search's pure structural operators.

    The grouping operators (absorbing merges, kinship adjacency, path
    closures, condensation SCCs) are pure functions of the execution
    order, the metadata and their arguments — and profiling shows the GA
    re-asks the same structural questions constantly (a quarter to a half
    of all calls are exact repeats).  Each table below memoizes one
    operator.  Keys are canonical (order-normalized) only where the
    memoized {e value} is provably independent of argument order — the
    absorbed member set of a merge, a group's kinship neighbor set; the
    order-sensitive parts (the [rest] list a merge returns, the filtered
    candidate list kinship adjacency returns) are recomputed from the
    live argument on every hit, because downstream RNG draws
    ([Rng.choose] over candidate lists) depend on input order.  Operators
    whose whole result is order-sensitive ([local_refine], SCCs of a
    group array) keep exact-order keys.

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

val find_exact : 'a table -> int list list -> (unit -> 'a) -> 'a
(** Probe keyed by the groups in the given order ([-1]-separated) — for
    order-sensitive operators. *)

val find_exact_with : 'a table -> int list list -> int list -> (unit -> 'a) -> 'a
(** Like {!find_exact} with trailing scalar arguments appended to the
    key after a [-2] separator. *)

val find_canonical : 'a table -> int list list -> int list -> (unit -> 'a) -> 'a
(** Probe keyed by the canonical partition signature plus the sorted
    extra members — permuted-but-equal arguments collide.  Only for
    operators whose memoized value is order-free. *)

val merge_table : 'a table -> unit
(** Fold every domain's private entries into the shared base
    (insert-if-absent) and clear the private tables.  Must only be
    called at a quiescent point — no concurrent probes. *)

val table_stats : 'a table -> int * int
(** [(hits, misses)] accumulated over all domains, live. *)

type bitset_table
(** A memo table from bitsets to bitsets with the same sharing
    discipline ({!Kf_util.Bitset.hash} is a pure content hash, so
    nothing depends on [OCAMLRUNPARAM=R]).  Avoids the list/array
    round-trips an int-array key would cost on the hottest memo (path
    closures). *)

val bitset_table : ?shards:int -> string -> bitset_table
(** Like {!table}; [?shards] is likewise ignored. *)

val find_or_compute_bitset : bitset_table -> Kf_util.Bitset.t -> (unit -> Kf_util.Bitset.t) -> Kf_util.Bitset.t
(** Like {!find_group} for bitsets, but both key and value are interned
    as defensive copies and every hit returns a fresh copy — callers own
    (and may mutate) the bitsets on their side of the call. *)

val merge_bitset_table : bitset_table -> unit
val bitset_table_stats : bitset_table -> int * int

type memos = {
  merge : int list option table;
      (** the absorbed member set (sorted) of [Grouping.absorbing_merge],
          or [None] for an infeasible merge — keyed canonically by
          (other groups, seed); the order-preserving [rest] is rebuilt
          from the live argument on each hit *)
  kin : Kf_util.Bitset.t table;
      (** a group's kinship neighbor set, keyed by the sorted group; the
          cached bitset is read-only *)
  closure : bitset_table;
      (** [Dag.path_closure] keyed by the seed set itself *)
  sccs : int list list table;
      (** [Grouping.condensation_sccs] keyed by the group array *)
  refine : int list list table;
      (** [Grouping.local_refine] keyed by the exact-order input plus the
          pass bound — the per-generation champion rarely changes, so
          repeat refinements are hits *)
  succs : Kf_util.Bitset.t array;
      (** per-kernel direct-successor bitsets of the (fixed) execution
          DAG, precomputed once — the group-level cycle check on memo
          misses runs on these instead of rebuilding adjacency tables *)
}
(** The bundle of operator memos every objective owns. *)

val create_memos : succs:Kf_util.Bitset.t array -> unit -> memos

val merge_memos : memos -> unit
(** {!merge_table} / {!merge_bitset_table} over every memo.  Call at
    generation barriers. *)

val memo_stats : memos -> (string * (int * int)) list
(** [(name, (hits, misses))] per table, in a fixed order. *)
