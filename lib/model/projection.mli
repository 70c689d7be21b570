(** The paper's codeless performance upper-bound projection (Section IV).

    Adapted from Lai & Seznec's potential-peak analysis, refocused from
    compute-bound GEMM onto memory-bound stencils: instead of deriving
    blocking factors that saturate the FP pipelines, derive the shared-
    memory blocking factor [B_Sh] that keeps enough thread blocks resident
    to hide memory latency, and bound performance by how effectively the
    new kernel's working set is blocked on-chip ([B_eff]), not by its
    operational intensity.

    Equation map (paper → here):
    {ul
    {- Eq. 2-3: register file residency, folded into [blocks_smx].}
    {- Eq. 4-6: register demand per thread, [registers_per_thread].}
    {- Eq. 7: SMEM residency with the [B_conf] padding reserve.}
    {- Eq. 8: [b_sh = T_B * Blocks_SMX / ((1 + c*H_TH) * |ShrLst|)].}
    {- Eq. 9: [p_membound = B_eff * GMEM_BW / elem_bytes] GFLOPS.}
    {- Eq. 10: projected runtime from total flops (members + halo
       replay) over [p_membound].}} *)

type projection = {
  runtime_s : float;  (** Eq. 10's T_pro: the projected lower bound on runtime *)
  p_membound_gflops : float;  (** Eq. 9 *)
  b_sh : float;  (** Eq. 8 SMEM blocking factor *)
  b_eff : float;  (** blocking effectiveness feeding Eq. 9 *)
  blocks_smx : int;  (** projected resident blocks of the new kernel *)
  registers_per_thread : int;  (** Eq. 6 demand *)
  smem_bytes : int;  (** Eq. 7 demand, padding included *)
  feasible : bool;
      (** Eqns. 1.6/1.7 hold: the kernel fits the SMX at all *)
}

val project : Inputs.t -> Kf_fusion.Fused.t -> projection
(** Project a candidate fused kernel.  Singleton "fusions" return the
    measured runtime of their member (the model exists for new kernels;
    originals have ground truth). *)

val runtime : Inputs.t -> Kf_fusion.Fused.t -> float
(** [(project i f).runtime_s] — infinite when infeasible. *)

val project_group : Inputs.t -> int list -> projection
(** Per-group entry point: build the fused kernel for one group and
    project it.  Plan cost decomposes as a sum over groups (Fig. 4,
    Eq. 1), so incremental evaluators re-project only the groups an
    operator changed and reuse memoized projections for the rest. *)

val group_runtime : Inputs.t -> int list -> float
(** Convenience: [project_group] runtime; measured runtime for
    singletons. *)

val arena_runtime : Feature_arena.scratch -> dev:int -> float
(** Allocation-free [runtime_s] off a loaded, analyzed and
    device-[fuse]d arena scratch — bit-identical to
    [(project i f).runtime_s] for the same group and device. *)

val pp : Format.formatter -> projection -> unit
