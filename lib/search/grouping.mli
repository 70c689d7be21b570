(** Grouping manipulation shared by all solvers: dependency-aware merging,
    random feasible plan construction, and local repair moves.

    The central operation is the {e absorbing merge}: uniting two groups
    and closing the result under the order-of-execution path constraint
    (paper Eq. 1.3) can pull in kernels that belong to third groups, which
    must then be absorbed whole — iterated to a fixpoint.  This is what
    makes the genetic operators "aware of groups" in the paper's sense:
    they move legal groups around instead of individual kernels. *)

type groups = int list list

(** The partition state every structural operator works on: which group
    each kernel is in, each group's members in member order, and the
    condensed (group-level) dependency graph of the execution DAG as
    successor and predecessor sets per group, all updated in place by
    merges, ejects and dissolves.  Groups are named by integer ids;
    [to_groups] lists them in the order the list operators below would
    produce — a merge puts the merged group first and keeps the others
    in order, an eject puts [[k]] and the remainder first, a dissolve
    puts the singletons where the group was.  A topological order of
    the condensed graph is kept across merges, so a merge searches only
    the window between its seeds.

    {b Ownership.}  Each domain has one state per objective, the
    {e scratch}, kept in the objective's per-domain slot
    ({!Objective.scratch}), so it lives exactly as long as the
    objective.  Every operator of this module — the list entry points,
    random plan construction, crossover, mutation, refinement — first
    loads its plan into the calling domain's scratch, in
    O(kernels + edges) and without allocating, then updates it in
    place, and converts back to lists once, for its result.  A loaded
    state is valid until the next operator on the same objective from
    the same domain. *)
module Partition : sig
  type t

  val of_groups : Objective.t -> groups -> t
  (** The calling domain's scratch, loaded with [groups].
      @raise Invalid_argument unless the groups partition all kernels of
      the objective's program. *)

  val to_groups : t -> groups

  val nth : t -> int -> int
  (** Id of the [i]-th group in list order. *)

  val group_of : t -> int -> int
  (** Id of the group holding a kernel. *)

  val kin_adjacent : t -> int -> int
  (** The number of groups (other than the given one) that hold a
      kinship neighbor of one of its members; their ids, in list order,
      are {!candidate}[ 0 ..]. *)

  val candidate : t -> int -> int

  val merge : t -> int list -> Objective.verdict
  (** [merge st seeds] computes the absorbing merge of the groups
      [seeds]: they absorb every group that is both reachable from and
      reaching them in the condensed graph, which is the least superset
      closed under the path constraint (paper Eq. 1.3) that leaves no
      condensation cycle through the merged group.  Returns the merged
      group's verdict.  The state is not changed; the merge is held, for
      {!commit}, until the next operation. *)

  val merged_group : t -> int list
  (** The held merge's members, sorted. *)

  val commit : t -> unit
  (** Apply the held merge. *)

  val eject : t -> int -> bool
  (** The list [eject] in place; [false] leaves the state unchanged. *)

  val dissolve : t -> int -> unit
  (** Replace a group by its singletons, in member order. *)

  val acyclic : t -> bool
  (** Whether the condensed graph is acyclic (the list [schedulable]). *)

  val repair : t -> unit
  (** The list [repair_schedule] in place. *)
end

val absorbing_merge : Objective.t -> groups -> int list -> (int list * groups) option
(** [absorbing_merge obj groups seed] merges the groups holding a member
    of [seed] into one, absorbing third groups as {!Partition.merge}
    does.  Returns the merged group (sorted) and the untouched remainder
    in order, or [None] when the merged group is infeasible (resources
    or kinship).  [groups] must partition all kernels. *)

val merge_pair : Objective.t -> groups -> int list -> int list -> (int list * groups) option
(** Absorbing merge seeded with the union of two existing groups (which
    must be members of [groups]). *)

val random_plan : Objective.t -> Kf_util.Rng.t -> ?merge_attempts:int -> int -> groups
(** [random_plan obj rng ~merge_attempts n] starts from the identity
    partition over [n] kernels and performs random absorbing merges of
    kin-adjacent groups, keeping only feasible results.
    [merge_attempts] defaults to [2 * n].  [n] must be the objective's
    kernel count. *)

val crossover :
  Objective.t -> Kf_util.Rng.t -> receiver:groups -> donor:groups -> groups
(** Falkenauer grouping crossover with dependency-aware repair: a random
    half (at most) of the donor's multi-member groups is injected into
    the receiver, the receiver's groups they disrupt are broken up, and
    each orphaned kernel is merged back into a kin-adjacent group when
    that lowers the projected total (the best such merge 70% of the
    time, a random improving one otherwise).  Condensation cycles are
    then repaired.  Returns canonical groups. *)

val mutate :
  ops:[ `Dissolve | `Eject | `Merge ] list -> Objective.t -> Kf_util.Rng.t -> groups -> groups
(** One random move drawn from [ops] ([[`Merge]] when no group has two
    members): dissolve a multi-member group, eject a member of one, or
    merge a random group with a random kin-adjacent one.  The draw
    order of [ops] is part of the random stream. *)

val dissolve : groups -> int list -> groups
(** Replace one group (matched by equality) by its singletons. *)

val eject : Objective.t -> groups -> int -> groups option
(** Remove kernel [k] from its group into a singleton, provided the
    remainder is still feasible; [None] otherwise (or if [k] is already a
    singleton). *)

val schedulable : Objective.t -> groups -> bool
(** Whether the condensed (per-group) dependency graph is acyclic — the
    whole-plan constraint that per-group convexity (paper Eq. 1.3) does
    not by itself guarantee.  A plan that fails this cannot be emitted as
    a host invocation sequence. *)

val packs_schedulable : Objective.t -> int list list list -> bool
(** {!schedulable} with each launch pack as one unit: packs are
    launches, so the condensation over the flattened packs must be
    acyclic (for single-plane packs this is exactly [schedulable]). *)

val repair_schedule : Objective.t -> groups -> groups
(** Restore schedulability: every multi-group condensation cycle is merged
    (absorbing merge), or dissolved into singletons when the merge is
    infeasible. *)

val local_refine : ?max_passes:int -> Objective.t -> groups -> groups
(** The "hybrid" half of the HGGA (after Falkenauer): hill-climb by kernel
    relocation — try ejecting each kernel to a singleton and re-inserting
    it into each kinship-adjacent group, keeping the best improving move;
    repeat up to [max_passes] (default 3) sweeps or until no move
    improves.  Preserves feasibility and schedulability. *)

val enforce_profitability : Objective.t -> groups -> groups
(** Final-answer cleanup for constraint (1.1): any multi-member group whose
    projected runtime does not beat its original sum is dissolved. *)

val kin_adjacent_groups : Objective.t -> groups -> int list -> groups
(** Groups of the plan (other than the given one) containing at least one
    kinship neighbor of the given group's members — merge candidates. *)
