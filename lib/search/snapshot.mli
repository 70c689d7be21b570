(** Checkpoint snapshots of a running {!Hgga} search.

    A snapshot captures everything the solver needs to continue exactly
    where it stopped: every island's population (as launch packs — costs
    are recomputed on resume, evaluation being pure) and RNG state, the
    incumbent, the generation and stall counters, the improvement
    history, and the ring-migration cursor.  Resuming from a snapshot
    written after generation [g] produces bit-for-bit the same remaining
    search as the uninterrupted run, so a killed long search loses at
    most one checkpoint interval.

    The on-disk form is a JSON document read through {!Kf_obs.Json} and
    written atomically via a temporary file + rename.  There is one
    format, 8, with a [kind] field telling checkpoints from {!Cache}
    documents; no older format is read — a checkpoint or cache file
    written by an earlier format is rejected and the run re-done.  Resume
    and the serve daemon's warm restart from a format-8 file are
    bit-identical to the uninterrupted process. *)

val format_version : int

type packs = int list list list
(** An individual as its launch packs: packs of planes of kernel ids.  A
    vertical individual is all single-plane packs. *)

type island = {
  rng_state : int64;  (** raw {!Kf_util.Rng} state of this island's generator *)
  population : packs list;
}

type t = {
  population_size : int;  (** total across all islands *)
  seed : int;  (** GA seed of the run that wrote the snapshot *)
  n : int;  (** kernel count of the program being searched *)
  generation : int;  (** generations completed when the snapshot was taken *)
  stall : int;  (** non-improving generations so far *)
  evaluations : int;
      (** objective evaluations across every run segment up to the save;
          resume seeds {!Objective.add_evaluations} with it so evaluation
          budgets span the whole logical run *)
  wall_time_s : float;
      (** wall time accumulated across every run segment up to the save;
          counted against [budget.max_wall_s] on resume *)
  faults : Objective.fault_stats;  (** cumulative fault counters at the save *)
  migration_cursor : int;
      (** ring migrations performed so far; drives the rotating migration
          offset on resume *)
  group_cache : Objective.cache_stats;
      (** cumulative group-cache hit/miss/eviction counters (the [size]
          field is always 0 — the saved process's table does not
          survive) *)
  plan_cache : Objective.cache_stats;
      (** cumulative plan-cache counters, like [group_cache] *)
  horizontal : bool;
      (** written by a horizontal search: individuals resume through the
          composition evaluator, and only a horizontal search may resume
          them *)
  best : packs;  (** incumbent *)
  history : (int * float) list;  (** improvement history, oldest first *)
  islands : island list;  (** per-island state, island 0 first *)
}

exception Malformed of string
(** Raised by {!load}/{!of_string} on syntactically or structurally
    invalid snapshot data, a document of another kind, or any format
    other than {!format_version}. *)

val render : t -> string
val save : string -> t -> unit
(** Crash-safe atomic write: the rendered document goes to a sibling
    temp file, the close is error-checked, and only then does a rename
    install it — so an interrupted or failed save (crash, full disk)
    never replaces a good previous snapshot with a truncated one, and
    the temp file is removed on failure.  @raise Sys_error on IO
    failure. *)

val of_string : string -> t
(** Every field is required.  Beyond the syntax, the load checks that
    [best] and every individual partition the kernels [0..n-1], that a
    vertical snapshot holds only single-plane packs, that no island is
    empty, and that island sizes sum to [population_size].
    @raise Malformed on invalid input. *)

val load : string -> t
(** @raise Sys_error on IO failure, [Malformed] on invalid content. *)

(** Standalone warm-cache documents: the serve daemon's persisted group
    verdicts and stored plans, keyed by a content digest of (program,
    device, model) so a restarted daemon only reuses them for identical
    inputs.  Same format 8, codec and crash-safe write discipline as
    snapshots; [kind] discriminates the document so a search checkpoint
    can never be loaded as a cache (or vice versa). *)
module Cache : sig
  type stored_plan = {
    groups : int list list;  (** the best plan found, canonical form *)
    cost : float;
    fingerprint : string;
        (** search-parameter fingerprint of the run that produced it —
            a stored plan only answers a request whose parameters
            fingerprint identically (see [Serve.Server]) *)
  }
  (** A completed search's answer for the entry's triple, so a repeat
      request can be served outright rather than merely warm-seeded.
      The load does not check [groups] against any program: the server
      does, before it serves them. *)

  type entry = {
    key : string;  (** content digest *)
    verdicts : (int array * Objective.verdict) list;
    plan : stored_plan option;
  }

  type nonrec t = entry list

  val render : t -> string

  val save : string -> t -> unit
  (** Atomic, error-checked write like {!Snapshot.save}. *)

  val of_string : string -> t
  (** Every field is required; an entry without a plan stores [null].
      @raise Malformed on invalid input, a non-cache document, or an
      unsupported format. *)

  val load : string -> t
  (** @raise Sys_error on IO failure, [Malformed] on invalid content. *)
end
