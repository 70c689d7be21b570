(** The per-candidate evaluation leaf: build the fused kernel with
    [Fused.build] and project it, for every candidate.  The objective's
    arena leaf must reproduce these verdicts bit for bit; tests install
    this leaf through the objective's guard to compare the two:

    {[
      Objective.create ~guard:(fun _ g -> Legacy_leaf.verdict ~model inputs g) inputs
    ]} *)

val verdict :
  model:Kf_search.Objective.model -> Kf_model.Inputs.t -> int list -> Kf_search.Objective.verdict
(** Feasibility, projected cost and original runtime sum of one group,
    with the active-constraint pruning order of paper §III-C: kinship,
    synchronization and convexity first, then the hazard and resource
    checks on the built kernel, and the model only on feasible groups.
    A singleton costs its measured runtime. *)

val guard : model:Kf_search.Objective.model -> Kf_model.Inputs.t -> Kf_search.Objective.guard
(** [fun _ g -> verdict ~model inputs g]: replaces the objective's leaf
    with this one. *)

val plan_cost : model:Kf_search.Objective.model -> Kf_model.Inputs.t -> int list list -> float
(** Σ of {!verdict} costs over the plan's canonical groups, in
    canonical group order, with no cache. *)
