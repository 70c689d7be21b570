(** MWP-CWP analytical model (after Hong & Kim, ISCA'09) — the expensive,
    code-representation-dependent performance model the paper contrasts
    its codeless projection against (GROPHECY adopts this model; the paper
    measures ~3 ms per evaluation and extrapolates 2.1e39 hours for an
    exhaustive SCALE-LES search).

    The model walks a per-warp instruction estimate of the candidate code
    (that estimate *is* a code representation — it must be reconstructed
    for every candidate, which is what makes it slow at search scale) and
    balances memory warp parallelism (MWP) against computation warp
    parallelism (CWP) to predict cycles. *)

type estimate = {
  cycles : float;
  mwp : float;  (** memory warp parallelism actually achievable *)
  cwp : float;  (** computation warp parallelism *)
  runtime_s : float;
}

val evaluate : Inputs.t -> Kf_fusion.Fused.t -> estimate
(** Full MWP-CWP evaluation of a candidate (deliberately reconstructs the
    per-warp instruction stream on every call, like a code-skeleton-based
    tool would). *)

val runtime : Inputs.t -> Kf_fusion.Fused.t -> float

val arena_runtime : Feature_arena.scratch -> dev:int -> float
(** Allocation-free runtime off a loaded, analyzed and device-[fuse]d
    arena scratch — bit-identical to the legacy path for the same group
    and device.  Singleton scratches return the measured runtime. *)
