(** The paper's "simple model" baseline (Section IV): project a fusion's
    runtime by taking the measured original sum and subtracting the time
    the eliminated shared-array traffic used to cost at the originals'
    empirically achieved bandwidth.

    More accurate than Roofline (it starts from measurements) but still
    blind to the new kernel's resource pressure, so it too over-promises
    on fusions that crush occupancy. *)

val saved_bytes : Inputs.t -> Kf_fusion.Fused.t -> float
(** GMEM bytes the fusion eliminates: members' summed traffic minus the
    fused kernel's traffic (never negative). *)

val runtime : Inputs.t -> Kf_fusion.Fused.t -> float
(** [original_sum - saved_bytes / effective_bandwidth], floored at the
    time the remaining traffic needs at that same bandwidth. *)

val arena_runtime : Feature_arena.scratch -> dev:int -> float
(** Allocation-free runtime off a loaded, analyzed and device-[fuse]d
    arena scratch — bit-identical to the legacy path for the same group
    and device.  Singleton scratches return the measured runtime. *)
