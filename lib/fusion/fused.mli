(** Fused ("new") kernels: the result of aggregating the code segments of a
    group of original kernels (paper §II-D).

    Construction decides, exactly as the paper describes, whether the fusion
    is {e simple} (no internal precedence: segments concatenate freely) or
    {e complex} (internal flow dependencies: barriers between segments and
    halo layers staged in SMEM to ride out the SMEM/GMEM incoherency), which
    shared arrays become the {e kernel pivot} (staged in SMEM), which are
    held in a register (thread load 1), and what the resulting on-chip
    footprint and register pressure are. *)

type kind = Simple | Complex

type segment = {
  kernel : int;  (** original kernel id *)
  barrier_before : bool;
      (** a [__syncthreads()] separates this segment from the previous one
          (complex fusion only) *)
  halo_producer : bool;
      (** this segment's operations must also be applied to the halo ring
          (it produces data a later segment consumes through SMEM) *)
  halo_depth : int;
      (** how deep a ring this segment must compute: consumers' radii
          accumulate along the internal flow chain (temporal blocking), so
          a producer feeding a radius-1 consumer that itself feeds a
          radius-1 consumer needs a depth-2 ring (0 for non-producers) *)
}

type t = {
  name : string;
  members : int list;  (** original kernel ids, in aggregation order *)
  segments : segment list;
  kind : kind;
  pivot : int list;
      (** the paper's F^Pivot: arrays with cross-segment reuse via SMEM *)
  register_reuse : int list;
      (** shared arrays whose single value per thread is passed in a
          register (thread load 1, §II-D.1) *)
  ro_staged : int list;
      (** pivot arrays staged through the read-only data cache instead of
          SMEM — populated only when the device enables
          [use_readonly_cache] (paper §II-C) and the array is read-only
          program-wide *)
  halo_layers : int;  (** halo ring depth (0 for simple fusions) *)
  halo_bytes : int;  (** Table III [Hal] for the new kernel *)
  smem_bytes_per_block : int;
      (** SMEM requirement per block, including halo rings and
          bank-conflict padding (read-only-cache staging excluded) *)
  ro_bytes_per_block : int;
      (** read-only cache requirement per block (0 unless enabled) *)
  registers_per_thread : int;  (** estimated R_T of the new kernel *)
  vertical_hazard : bool;
      (** an internal flow dependency is consumed through a vertical
          (k-direction) stencil: the sequential k-loop cannot provide the
          producer's future planes, so the fusion is illegal (halo layers
          only cover the horizontal plane) *)
}

val build :
  device:Kf_gpu.Device.t ->
  meta:Kf_ir.Metadata.t ->
  exec:Kf_graph.Exec_order.t ->
  group:int list ->
  t
(** Builds the fused kernel for a group of original kernels.  The group is
    ordered by {!Kf_graph.Exec_order.group_order}; it need not be legal —
    legality is the plan checker's job ({!Plan.validate}) — but it must be
    non-empty and duplicate-free.
    @raise Invalid_argument on an empty or duplicated group. *)

val flops_per_site : Kf_ir.Program.t -> t -> float
(** Per-site flops of the fused kernel: sum of members (halo redundancy
    accounted separately via {!halo_extra_flops}). *)

val halo_extra_flops : Kf_ir.Program.t -> t -> float
(** Total extra flops spent computing halo rings (paper Eq. 10's
    [Σ_M Flop(x)·Hal] term): producer segments replay their per-site work
    on [halo_layers]-deep rings, every plane, every block. *)

val total_flops : Kf_ir.Program.t -> t -> float
(** Members' flops over the grid plus {!halo_extra_flops}. *)

val gmem_bytes : Kf_ir.Program.t -> t -> float
(** GMEM traffic of the fused kernel: each read array fetched once
    (pivot reuse collapses repeated fetches), plus block-boundary and halo
    refetches, plus one footprint per written array. *)

val smem_staged_count : t -> int
(** Number of arrays resident in SMEM across the whole kernel (pivot
    staged arrays; used by occupancy and the projection model). *)

val is_singleton : t -> bool
(** A "fusion" of one kernel — kept original in the final program. *)

val pp : Format.formatter -> t -> unit
