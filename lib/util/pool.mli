(** Persistent worker-domain pool handing out task indices from one
    shared counter.

    [Domain.spawn] costs far more than one generation of GA work on
    small populations; a search that fans out every generation must not
    pay it every time.  The pool spawns its [n - 1] helper domains once;
    each {!run} re-engages them over one mutex/condition pair, and the
    calling domain works alongside them, so [create 1] spawns nothing.

    Every domain taking part in a {!run} claims the next unclaimed task
    index with one [Atomic.fetch_and_add], so a domain that finishes
    early simply claims more: an imbalanced fan-out runs at the speed of
    its total work, not of a pinned stripe.  Indices are claimed in
    ascending order; a caller that wants its slowest tasks started first
    numbers them first. *)

type t

val create : int -> t
(** [create n] makes a pool of [n] domains: the caller of {!run} and
    [n - 1] spawned helpers that idle until a run needs them.
    @raise Invalid_argument if [n < 1]. *)

val size : t -> int

val run : t -> tasks:int -> (int -> unit) -> unit
(** [run t ~tasks f] executes [f i] exactly once for every task index
    [i] in [0, tasks) and returns when all calls have finished (a
    barrier).  The calling domain runs tasks too; which domain runs a
    given index is scheduling-dependent, so results are deterministic
    iff [f] is (observably) pure per index.  If any call raises, the
    indices not yet claimed are skipped and the first raised exception
    is re-raised here after the barrier {e with its originating
    backtrace} ([Printexc.raise_with_backtrace]); the pool remains
    usable.  A [run] made while another [run] of the same pool is fanning
    out — from inside one of its tasks, or from another domain — executes
    all its tasks on its own calling domain, in index order.
    @raise Invalid_argument if [tasks < 0] or the pool is shut down. *)

val shutdown : t -> unit
(** Stop and join the helper domains.  Idempotent.  Subsequent runs
    raise [Invalid_argument]. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool, always shutting it down
    (including on exceptions). *)
