(** The daemon's cross-request warm cache.

    Group verdicts exported from one request's objective
    ({!Kf_search.Objective.export_block}) are stored as one flat block
    per program under a content digest of (program text, device, model)
    and seeded into later objectives over the same triple — evaluation is pure, so a
    warm start can only skip work.  An entry can also carry the {e
    answer}: the best plan a completed search found (with a
    search-parameter fingerprint), so an identical repeat request is
    served without searching at all.  Thread-safe; bounded by a
    counted LRU cap on stored programs (streaming sessions mint one
    digest per program version, so the bound is what keeps a long
    session from growing the store forever); persisted as a crash-safe
    {!Kf_search.Snapshot.Cache} document, streamed entry by entry, so a
    restarted daemon resumes warm. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] caps the number of distinct (program, device, model)
    triples kept (default 64; LRU eviction — {!find}, {!find_plan},
    {!absorb} and {!store_plan} all refresh recency).
    @raise Invalid_argument if it is not positive. *)

val key :
  program:Kf_ir.Program.t ->
  device:Kf_gpu.Device.t ->
  model:Kf_search.Objective.model ->
  string
(** Content digest of the triple — two requests share warmth exactly
    when their canonical program text, device and model all match. *)

val find : t -> string -> Kf_search.Objective.Block.t
(** The stored verdicts for a key ({!Kf_search.Objective.Block.empty}
    when cold). *)

val find_plan : t -> string -> Kf_search.Snapshot.Cache.stored_plan option
(** The stored answer for a key, if a search over this triple already
    completed.  The caller must check the plan's [fingerprint] against
    the request's resolved search parameters, and its groups against the
    request's program (a loaded plan is unchecked), before serving it. *)

val absorb : t -> string -> Kf_search.Objective.Block.t -> unit
(** Merge a request's exported verdicts.  The larger of the stored and
    offered blocks wins (an export from a seeded request is a superset of
    its seed); empty exports are ignored. *)

val store_plan : t -> string -> Kf_search.Snapshot.Cache.stored_plan -> unit
(** Record a completed search's answer for a key (replacing any previous
    one). *)

val programs : t -> int
(** Distinct triples currently stored. *)

val verdict_count : t -> int
(** Total verdicts across all entries: a sum of block lengths. *)

val evictions : t -> int
(** Entries dropped by the LRU bound since the store was created — the
    [serve.cache.evictions] metric. *)

val dirty : t -> bool
(** Whether the store changed since the last {!save}/{!load}. *)

val save : t -> string -> unit
(** Crash-safe persist (atomic temp-file + rename; see
    {!Kf_search.Snapshot.Cache.save}).  Clears {!dirty}.
    @raise Sys_error on IO failure. *)

val load : t -> string -> unit
(** Merge a persisted document into the store.
    @raise Sys_error / {!Kf_search.Snapshot.Malformed} on unreadable or
    corrupt files. *)

val load_if_exists : t -> string -> unit
(** {!load} when [path] exists; no-op otherwise (fresh daemon). *)
