(** Measurement driver: the simulator's equivalent of running and profiling
    a kernel on the physical GPU.

    Everything the paper obtains empirically — original kernel runtimes
    P(K_i), effective bandwidths, new-kernel runtimes, whole-program
    speedups — comes from here. *)

type result = {
  runtime_s : float;
  gmem_bytes : float;
  achieved_gbs : float;  (** gmem_bytes / runtime, in GB/s *)
  achieved_gflops : float;
  occupancy : Occupancy.limits;
  cycles_per_wave : float;
  waves : int;
  issue_stall_fraction : float;
}

val kernel : device:Kf_gpu.Device.t -> Kf_ir.Program.t -> int -> result
(** Measure one original kernel. *)

val fused : device:Kf_gpu.Device.t -> Kf_ir.Program.t -> Kf_fusion.Fused.t -> result
(** Measure one fused kernel.
    @raise Invalid_argument if the kernel cannot launch on the device
    (resource demand above SMX capacity) — fusion plans are expected to be
    validated first. *)

val program : device:Kf_gpu.Device.t -> Kf_ir.Program.t -> float
(** Total runtime of the original program (sum over kernel launches; the
    paper's codes are dependence-chained, so launches serialize). *)

val program_results : device:Kf_gpu.Device.t -> Kf_ir.Program.t -> result array
(** Per-kernel measurements, indexed by kernel id. *)

val fused_program : device:Kf_gpu.Device.t -> Kf_fusion.Fused_program.t -> float
(** Total runtime after fusion. *)

val fused_program_results :
  ?originals:result array ->
  device:Kf_gpu.Device.t ->
  Kf_fusion.Fused_program.t ->
  (Kf_fusion.Fused_program.unit_ * result) list
(** One measurement per unit, in unit order.  [originals], when given,
    must be {!program_results} of the same device and program; its
    entries stand for the original kernels (whole units and horizontal
    planes) instead of simulating them again. *)

val speedup : device:Kf_gpu.Device.t -> Kf_fusion.Fused_program.t -> float
(** Original runtime over fused runtime for the same program and device. *)

val pp_result : Format.formatter -> result -> unit
