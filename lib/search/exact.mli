(** Exact solver: optimal fusion plan by dynamic programming over subsets.

    The paper verifies the HGGA's solution quality "for benchmarks of
    small sizes … using a deterministic method" (§VI-C, Fig. 5a).  This is
    that method: enumerate every feasible group (kinship-connected,
    path-convex, resource-fitting subsets up to a size bound), then run a
    minimum-cost scheduling DP over prefix bitmasks — a group may be
    placed only when its external predecessors are already scheduled,
    which restricts the search to partitions whose condensed dependency
    graph is acyclic (the whole-plan schedulability constraint).
    Exponential in kernel count; practical to roughly 20 kernels. *)

type result = {
  groups : Grouping.groups;
  plan : Kf_fusion.Plan.t;
  cost : float;
  feasible_groups : int;  (** number of feasible groups enumerated *)
  dp_states : int;  (** subset states materialized by the DP *)
}

val solve : ?max_group_size:int -> Objective.t -> result
(** [max_group_size] bounds enumerated group cardinality (default 8).
    The cap bounds the DP's enumeration, not the optimum: optimal groups
    can be larger (Fig. 5a's instances have optima with groups of 11 and
    14 kernels), so a capped solve is optimal only among plans whose
    groups fit the cap.  Raise it for exhaustive ground truth.
    @raise Invalid_argument for programs over 62 kernels (bitmask
    representation). *)

val optimal_cost : ?max_group_size:int -> Objective.t -> float
(** Cost of {!solve}'s plan. *)
