(** Discrete-time SMX execution engine.

    One representative SMX is simulated at warp granularity: resident
    warps issue instructions against four contended resources — the issue
    slots of the warp schedulers, the floating-point pipeline, the
    shared-memory pipeline and the SMX's share of DRAM bandwidth — with
    DRAM and SMEM latencies on top.  Latency hiding, the phenomenon the
    paper's projection model approximates, *emerges* here: with few
    resident warps the DRAM round-trip is exposed, with many it overlaps.

    The full grid executes as successive waves of resident blocks; total
    runtime extrapolates one wave's cycle count over the wave count (all
    blocks run the same trace — the codes are uniform stencil sweeps). *)

type instr =
  | Gload of int
      (** global-memory load: [n] 128-byte transactions issued by the warp *)
  | Prefetch of int
      (** double-buffered load of the {e next} vertical iteration's tile:
          consumes bandwidth now, but nothing in this iteration waits for
          the data (the paper's "rigorously optimized" original kernels
          overlap their staging loads with computation) *)
  | Gstore of int  (** global-memory store: [n] transactions *)
  | Smem of int
      (** [n] shared-memory accesses (the engine scales their service time
          by the kernel's bank-conflict factor) *)
  | Compute of int  (** [n] warp-wide floating-point instructions *)
  | Barrier  (** block-wide [__syncthreads()] *)

type block_spec = {
  warps_per_block : int;
  trace : instr array;  (** one full sweep (all vertical iterations) *)
  special_trace : instr array;
      (** warp 0 of each block — the specialized halo-duty warp of paper
          §II-D.2 — runs this trace instead *)
  conflict_factor : float;  (** ≥ 1.0; SMEM service-time multiplier *)
  stream_factor : float;
      (** ≥ 1.0; DRAM service-time multiplier for kernels streaming many
          concurrent arrays (row-buffer locality loss — wide fused kernels
          interleave more open streams than the memory controller has
          banks for) *)
}

type config = {
  device : Kf_gpu.Device.t;
  blocks_per_smx : int;  (** resident blocks (from {!Occupancy}) *)
  total_blocks : int;  (** grid size in blocks *)
  spec : block_spec;
}

type result = {
  cycles_per_wave : float;
  waves : int;
  runtime_s : float;
  issue_stall_fraction : float;
      (** fraction of wave cycles in which no warp could issue — high
          values mean latency was not hidden *)
  instructions : int;  (** instructions executed in the simulated wave *)
}

val run : config -> result
(** Simulate one wave and extrapolate it over the grid.

    Determinism contract: the result is a function of [config] alone, bit
    for bit.  Warp [i] is warp [i mod warps_per_block] of resident block
    [i / warps_per_block].  Each issue slot goes to the runnable
    (unparked, unfinished) warp with the earliest ready time, and among
    equal ready times to the one with the lowest index; the
    floating-point operations of each instruction are applied in a fixed
    order.  The runnable warps are kept in a binary min-heap on
    (ready time, index), so issuing an instruction costs O(log W) for W
    resident warps, and the issue loop allocates nothing.

    @raise Invalid_argument on a zero-block configuration (the kernel
    cannot launch: resource demand exceeds the SMX), and when warps wait
    at a barrier that the rest of their block never reaches (the special
    trace and the ordinary trace disagree on their barriers). *)
