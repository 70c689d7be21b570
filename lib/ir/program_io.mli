(** Plain-text serialization of programs.

    A small line-oriented format so that programs can be written by hand,
    stored next to an application's source, and fed to the CLI without
    recompiling.  Example:

    {v
    # diffusion demo
    program diffusion
    grid 512 512 16 blocks 32 8
    array temp
    array lap elem 8
    array sfc extent 2d
    kernel laplacian regs 28
      read temp star5 4.0
      write lap point
    kernel update regs 32 active 0.75 extra 2.0
      readwrite temp point 2.0
      read lap load:8 3.0
    v}

    Array attributes: [elem <bytes>] (default 8), [extent 2d|3d] (default
    3d).  Kernel attributes: [regs <n>] (default 32), [addr <n>] (default
    6), [active <fraction>] (default 1.0), [extra <flops>] (default 0).
    Access lines are [read|write|readwrite <array> <stencil> [flops]] with
    stencils named [point], [star5], [star9], [asym4], [cross3v],
    [star:<radius>], [box:<radius>], [load:<points>], or given explicitly
    as [offsets (di,dj,dk)(di,dj,dk)…].  Ids are assigned in declaration
    order. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse : string -> Program.t
(** Parse the textual form.  @raise Parse_error on any invalid input —
    malformed syntax, or a declaration the IR's validation rejects (at
    that declaration's line; program-level checks report the last
    line).  No other exception escapes. *)

val parse_file : string -> Program.t
(** [parse] on a file's contents.  @raise Sys_error on IO failure. *)

val print : Program.t -> string
(** Render a program; [parse (print p)] reconstructs an equal program
    (stencils print as explicit offsets to stay exact). *)

val write_file : string -> Program.t -> unit
