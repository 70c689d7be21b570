(** Whole-program IR: the sequence of kernel invocations of one GPU routine
    (e.g. the Runge-Kutta core of SCALE-LES in paper Fig. 1) together with
    its data arrays and grid geometry.

    Kernel and array ids are their positions in the respective arrays;
    kernel order is host invocation order.  Per the paper's single-call-site
    assumption (§II-C), each kernel appears exactly once — repeated
    invocations are modeled as distinct kernels by the workload
    generators. *)

type t = private {
  name : string;
  grid : Grid.t;
  arrays : Array_info.t array;
  kernels : Kernel.t array;
}

val create : name:string -> grid:Grid.t -> arrays:Array_info.t list -> kernels:Kernel.t list -> t
(** Builds and validates a program.  @raise Invalid_argument with a
    description of the first violated invariant. *)

val validate : t -> string list
(** All invariant violations ([] for a well-formed program): ids matching
    positions, accesses referencing existing arrays, every array touched by
    at least one kernel, register counts within the ISA bound. *)

val num_kernels : t -> int
val num_arrays : t -> int

val kernel : t -> int -> Kernel.t
(** @raise Invalid_argument on an out-of-range id. *)

val array : t -> int -> Array_info.t
(** @raise Invalid_argument on an out-of-range id. *)

val total_flops : t -> float
(** Sum of per-kernel flop counts over the grid. *)

val with_grid : t -> Grid.t -> t
(** Same program over a different grid (e.g. a scaled-down instance for
    the execution oracle).  @raise Invalid_argument on an illegal grid. *)

val restrict : t -> int list -> t
(** [restrict t keep] is the sub-program containing exactly the kernels
    of [keep] (in that order), with kernel and array ids renumbered and
    untouched arrays dropped.  Kept kernels are content-identical to the
    originals up to renumbering — the building block of streaming edit
    traces (kernel arrival = growing prefix, removal = dropped id).
    Kernel, access and array records whose ids do not change are shared
    with [t].
    @raise Invalid_argument on an empty list or out-of-range ids. *)

val edit_kernel : t -> int -> (Kernel.t -> Kernel.t) -> t
(** [edit_kernel t id f] replaces kernel [id] by [f (kernel t id)] (the
    id itself is preserved) and re-validates the program — the "kernel
    edited" case of a streaming program delta.
    @raise Invalid_argument on an out-of-range id or if the edited
    program fails validation. *)

val with_blocks : t -> block_x:int -> block_y:int -> t
(** Same program with a different thread-block tile (the §II-D.2 tradeoff:
    larger blocks amortize halo layers but strain SMEM).
    @raise Invalid_argument on an illegal tile. *)

val pp : Format.formatter -> t -> unit
val pp_stats : Format.formatter -> t -> unit
(** One-line summary: kernel count, array count, grid. *)
