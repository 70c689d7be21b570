(** Structure-of-arrays feature arena for allocation-free group evaluation.

    The legacy evaluation leaf rebuilds a {!Kf_fusion.Fused.t} — lists,
    closures, a record — for every candidate group, tens of millions of
    times per search.  The arena precomputes every immutable per-kernel,
    per-array and per-edge feature the models read (the paper's Table III
    metadata plus the derived graph features) into flat arrays {e once per
    program}, and turns one group evaluation into index arithmetic over a
    per-domain scratch buffer: no allocation on the hot path.

    The arena path is {e bit-identical} to the legacy path: structural
    predicates are boolean-identical reformulations, integer features are
    the same max/sum over the same multisets, float folds replay the legacy
    association in the legacy (execution) order, and the one aggregation
    whose float order is an implementation artifact — per-array GMEM
    traffic — sums whole numbers of bytes, so it is exact in any order.
    [test/test_arena.ml] enforces the equivalence differentially.

    Because almost all of the per-group work ({!analyze} and everything
    before it) is device-independent, an arena built over several devices'
    {!Inputs} amortizes it: one [load]/[analyze] followed by one cheap
    {!fuse} + model call per device — the basis of the multi-device
    portfolio sweep. *)

type t
(** Immutable per-program feature tables plus per-domain scratches. *)

type scratch
(** Per-domain mutable evaluation state.  A scratch belongs to the domain
    that obtained it from {!load}; its contents are valid until that
    domain's next [load]. *)

val create : Inputs.t -> extra:Inputs.t list -> t
(** [create primary ~extra] builds the arena for [primary]'s program.
    [extra] lists further devices' inputs (device index 1, 2, … in
    {!fuse}/model calls; the primary is device 0).
    @raise Invalid_argument when an element of [extra] was built over a
    different program value ([!=]) than [primary]. *)

(** {1 Arena-level accessors} *)

val num_devices : t -> int
val device : t -> int -> Kf_gpu.Device.t
val devices : t -> Kf_gpu.Device.t array
val program : t -> Kf_ir.Program.t

val kin_rows : t -> Kf_util.Bitset.t array
val descendants : t -> Kf_util.Bitset.t array

val ancestors : t -> Kf_util.Bitset.t array
(** Per kernel: its kinship neighbors, and its descendants and
    ancestors in the execution DAG (shared, read-only). *)

val measured_runtime : t -> dev:int -> float array
(** Measured per-kernel runtimes on device [dev] (do not mutate). *)

val measured_bytes : t -> dev:int -> float array
val grid_threads : t -> int
val grid_blocks : t -> int
val grid_nz : t -> int

(** {1 Group evaluation}

    Call order per group: {!load}, then the structural predicates (valid
    before {!analyze} — they expect the loaded member set), then
    {!analyze}, then {!fuse} once per device of interest, reading the
    feature accessors after the corresponding step. *)

val load : t -> int list -> scratch
(** Load a duplicate-free group (canonically sorted, as the search caches
    produce) into this domain's scratch.  O(|group|): all scratch sets are
    epoch-stamped, nothing is cleared.
    @raise Invalid_argument on an empty group. *)

val connected : scratch -> bool
(** Kinship connectivity — boolean-identical to
    {!Kf_ir.Metadata.kinship_connected}. *)

val spans_sync : scratch -> bool
(** Identical to {!Kf_graph.Exec_order.group_spans_sync}, via the
    precomputed cumulative sync-point counts. *)

val convex : scratch -> bool
(** Identical to {!Kf_graph.Exec_order.group_is_convex}: a non-member on
    a member-to-member path is a member of both the union of members'
    descendant sets and the union of their ancestor sets. *)

val analyze : scratch -> unit
(** Device-independent analysis: orders members by execution rank,
    derives barriers, halo depths, the pivot partition, flop totals —
    everything {!Kf_fusion.Fused.build} derives that does not depend on
    the device. *)

val fuse : scratch -> dev:int -> unit
(** Device-dependent features (read-only-cache split, SMEM/halo bytes,
    register demand) for device [dev].  Requires {!analyze}; overwrites
    the previous [fuse] results in place. *)

(** {1 Feature accessors} (valid after {!analyze}; the ones marked [fuse]
    additionally require {!fuse} and reflect its device) *)

val arena : scratch -> t
val member_count : scratch -> int

val member : scratch -> int -> int
(** Members in execution (aggregation) order after {!analyze}. *)

val halo_layers : scratch -> int
val vertical_hazard : scratch -> bool
val barrier_count : scratch -> int

val t_b : scratch -> int
(** Table III [T_B] of the fused kernel: least active-thread count. *)

val total_flops : scratch -> float
(** Bit-identical to {!Kf_fusion.Fused.total_flops} of the candidate. *)

val gmem_bytes : scratch -> float
(** Bit-identical to {!Kf_fusion.Fused.gmem_bytes} (the same code runs).
    Lazy: computed on first demand after {!analyze}, memoized for the
    scratch's current group. *)

val smem_staged_count : scratch -> int
(** [fuse]-dependent. *)

val smem_bytes_per_block : scratch -> int
(** [fuse]-dependent. *)

val halo_bytes : scratch -> int
(** [fuse]-dependent. *)

val registers_per_thread : scratch -> int
(** [fuse]-dependent. *)

val mwp_iter_counts : scratch -> int * int * int
(** [(mem, comp, sync)] instruction counts of one vertical-loop iteration
    of the MWP-CWP warp stream ({!Mwp}), identical to counting the legacy
    reconstructed stream. *)
