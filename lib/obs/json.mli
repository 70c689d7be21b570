(** Minimal JSON values: the telemetry stream, the serve protocol and
    the persisted checkpoint and cache documents all go through this one
    codec.

    The writer never emits anything outside the JSON grammar (non-finite
    floats degrade to [null]).  The parser is total: every input yields a
    value or {!Malformed}, including input nested deeper than 64 levels,
    which is rejected rather than recursed into. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val buffer : Buffer.t -> t -> unit
(** Append the compact rendering; strings are escaped. *)

exception Malformed of string

val of_string : string -> t
(** @raise Malformed on invalid input. *)

(* Accessors for validation code; all return [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Ints coerce: JSON does not distinguish [1] from [1.0]. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
