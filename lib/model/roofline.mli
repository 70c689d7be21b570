(** The Roofline model (Williams, Waterman & Patterson) as a projection
    baseline.

    Performance is bounded by [min(peak, OI * BW)] where OI is the
    kernel's operational intensity.  The paper uses Roofline as the
    strawman objective: it is blind to the resource pressure fusion
    creates (occupancy loss, register pressure, bank conflicts), so it
    systematically over-promises — the motivating example's Kernel Y is
    projected at 336 µs by Roofline but measures 554 µs. *)

val attainable_gflops : Inputs.t -> Kf_fusion.Fused.t -> float
(** [min(peak, OI * BW)] for the candidate's aggregate flops and traffic. *)

val runtime : Inputs.t -> Kf_fusion.Fused.t -> float
(** Projected runtime: total flops over {!attainable_gflops}. *)

val arena_runtime : Feature_arena.scratch -> dev:int -> float
(** Allocation-free runtime off a loaded, analyzed and device-[fuse]d
    arena scratch — bit-identical to the legacy path for the same group
    and device.  Singleton scratches return the measured runtime. *)
