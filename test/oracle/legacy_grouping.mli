(** The structural operators of {!Kf_search.Grouping} on plain
    [int list list] partitions, without a partition state or memos:
    every call recomputes from the execution DAG and the kinship
    metadata (path closure with [Dag.path_closure] and condensation
    cycles with a full Kosaraju pass, iterated to a fixpoint; kinship
    neighbors from [Metadata]).  The library's operators must return
    exactly what these return, in the same order; tests compare the two
    on random partitions and random operator sequences.  Verdicts still
    come from the objective, whose caches are checked against
    {!Legacy_leaf}. *)

val condensation_sccs : Kf_graph.Exec_order.t -> int list array -> int list list
(** Strongly connected components (as group indices) of the condensed
    per-group dependency graph. *)

val schedulable : Kf_search.Objective.t -> int list list -> bool
val absorbing_merge :
  Kf_search.Objective.t -> int list list -> int list -> (int list * int list list) option

val merge_pair :
  Kf_search.Objective.t -> int list list -> int list -> int list -> (int list * int list list) option

val repair_schedule : Kf_search.Objective.t -> int list list -> int list list
val dissolve : int list list -> int list -> int list list
val eject : Kf_search.Objective.t -> int list list -> int -> int list list option

val random_plan :
  Kf_search.Objective.t -> Kf_util.Rng.t -> ?merge_attempts:int -> int -> int list list

val kin_adjacent_groups : Kf_search.Objective.t -> int list list -> int list -> int list list
val local_refine : ?max_passes:int -> Kf_search.Objective.t -> int list list -> int list list
(** Each the list-based counterpart of the {!Kf_search.Grouping}
    operator of the same name. *)
