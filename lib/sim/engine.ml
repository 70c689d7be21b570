module Device = Kf_gpu.Device

type instr =
  | Gload of int
  | Prefetch of int
  | Gstore of int
  | Smem of int
  | Compute of int
  | Barrier

type block_spec = {
  warps_per_block : int;
  trace : instr array;
  special_trace : instr array;
  conflict_factor : float;
  stream_factor : float;
}

type config = {
  device : Device.t;
  blocks_per_smx : int;
  total_blocks : int;
  spec : block_spec;
}

type result = {
  cycles_per_wave : float;
  waves : int;
  runtime_s : float;
  issue_stall_fraction : float;
  instructions : int;
}

(* In-flight global loads per warp (Kepler scoreboard/register-destination
   limit).  This is what stops a single resident mega-block from saturating
   DRAM on its own. *)
let mlp_limit = 6

let barrier_cost = 16.

(* Simulated-cycle accounting: what the simulator substrate actually did
   across a whole run, for the observability layer.  No-ops unless
   Kf_obs.Metrics is enabled. *)
let m_runs = Kf_obs.Metrics.counter "sim.engine_runs"
let m_instructions = Kf_obs.Metrics.counter "sim.instructions"
let m_cycles = Kf_obs.Metrics.counter "sim.cycles"

(* The runnable warps form a binary min-heap of warp indices ordered by
   (ready, index): the earliest-ready warp first, the lowest index among
   ties — exactly the warp a linear scan in index order would pick. *)
let[@inline] earlier (ready : float array) i j =
  let ri = ready.(i) and rj = ready.(j) in
  ri < rj || (ri = rj && i < j)

let rec sift_down (heap : int array) ready size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let c = if l + 1 < size && earlier ready heap.(l + 1) heap.(l) then l + 1 else l in
    let w = heap.(i) in
    if earlier ready heap.(c) w then begin
      heap.(i) <- heap.(c);
      heap.(c) <- w;
      sift_down heap ready size c
    end
  end

let rec sift_up (heap : int array) ready i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let w = heap.(i) in
    if earlier ready w heap.(p) then begin
      heap.(i) <- heap.(p);
      heap.(p) <- w;
      sift_up heap ready p
    end
  end

let run cfg =
  if cfg.blocks_per_smx <= 0 then
    invalid_arg "Engine.run: kernel cannot launch (zero resident blocks)";
  if cfg.spec.warps_per_block <= 0 then invalid_arg "Engine.run: no warps per block";
  let d = cfg.device in
  let nblocks = cfg.blocks_per_smx in
  let wpb = cfg.spec.warps_per_block in
  let nwarps = nblocks * wpb in
  (* Warp state in flat arrays, indexed by warp; warp [i] belongs to block
     [i / wpb], and the first warp of each block runs the special trace. *)
  let traces =
    Array.init nwarps (fun i -> if i mod wpb = 0 then cfg.spec.special_trace else cfg.spec.trace)
  in
  let pc = Array.make nwarps 0 in
  let ready = Array.make nwarps 0. in
  (* completion time of the warp's outstanding global loads: loads are
     pipelined (memory-level parallelism), only consumers wait *)
  let data_ready = Array.make nwarps 0. in
  let parked = Array.make nwarps false in
  (* The load scoreboard: a ring of the completion times of each warp's
     in-flight loads, at most [mlp_limit] of them, oldest at [inflight_head]. *)
  let inflight = Array.make (nwarps * mlp_limit) 0. in
  let inflight_head = Array.make nwarps 0 in
  let inflight_len = Array.make nwarps 0 in
  (* Resource model: "next free" timestamps advanced by per-instruction
     service times; a warp's instruction starts when both the warp and the
     issue slots are free, and completes after the resource pipeline has
     drained its requests plus the access latency. *)
  let issue_period = 1. /. float_of_int (d.Device.schedulers_per_smx * d.Device.dispatch_per_scheduler) in
  let dram_cycles_per_txn =
    128. /. (Device.bytes_per_cycle d /. float_of_int d.Device.smx_count)
    *. Float.max 1.0 cfg.spec.stream_factor
  in
  let fp_cycles_per_instr = 32. /. Device.flops_per_cycle_smx d in
  let smem_cycles_per_access = cfg.spec.conflict_factor in
  let issue_next = ref 0. in
  let dram_next = ref 0. in
  let fp_next = ref 0. in
  let smem_next = ref 0. in
  let idle_cycles = ref 0. in
  let instructions = ref 0 in
  (* Barrier bookkeeping per block: the warps parked at block [b]'s
     barrier are [waiters.(b * wpb)] .. [waiters.(b * wpb + count - 1)]. *)
  let barrier_count = Array.make nblocks 0 in
  let waiters = Array.make nwarps 0 in
  (* Warps whose trace is empty are done before the first cycle; the rest
     start runnable, all ready at 0, so index order is already a heap. *)
  let heap = Array.make nwarps 0 in
  let size = ref 0 in
  for w = 0 to nwarps - 1 do
    if Array.length traces.(w) > 0 then begin
      heap.(!size) <- w;
      incr size
    end
  done;
  let remaining = ref !size in
  let finish_time = ref 0. in
  while !remaining > 0 do
    if !size = 0 then
      (* Every unfinished warp is parked at a barrier that the rest of its
         block never reaches: the block spec's traces disagree. *)
      invalid_arg "Engine.run: internal deadlock (barrier with no arrivals pending)";
    let w = heap.(0) in
    let start = Float.max ready.(w) !issue_next in
    if start > !issue_next then idle_cycles := !idle_cycles +. (start -. !issue_next);
    issue_next := start +. issue_period;
    incr instructions;
    let trace = traces.(w) in
    let instr = trace.(pc.(w)) in
    pc.(w) <- pc.(w) + 1;
    (* When this instruction completes a barrier: where the released
       warps start in [waiters].  They go back on the heap only after
       [w]'s own slot is settled. *)
    let released = ref (-1) in
    (match instr with
    | Gload n ->
        (* Loads pipeline up to the scoreboard limit: the warp keeps
           issuing (memory-level parallelism); the data-ready horizon
           moves to this load's completion and consumers below wait on
           it.  When the in-flight window is full, issuing stalls until
           the oldest load lands. *)
        let base = w * mlp_limit in
        let start =
          if inflight_len.(w) >= mlp_limit then begin
            let head = inflight_head.(w) in
            inflight_head.(w) <- (head + 1) mod mlp_limit;
            inflight_len.(w) <- inflight_len.(w) - 1;
            Float.max start inflight.(base + head)
          end
          else start
        in
        let service = float_of_int n *. dram_cycles_per_txn in
        let begin_xfer = Float.max start !dram_next in
        dram_next := begin_xfer +. service;
        let completion = !dram_next +. float_of_int d.Device.gmem_latency_cycles in
        inflight.(base + ((inflight_head.(w) + inflight_len.(w)) mod mlp_limit)) <- completion;
        inflight_len.(w) <- inflight_len.(w) + 1;
        data_ready.(w) <- Float.max data_ready.(w) completion;
        ready.(w) <- start +. 2.
    | Prefetch n ->
        (* Bandwidth now, data needed only next iteration: no
           data-ready update. *)
        let service = float_of_int n *. dram_cycles_per_txn in
        let begin_xfer = Float.max start !dram_next in
        dram_next := begin_xfer +. service;
        ready.(w) <- start +. 2.
    | Gstore n ->
        (* Stores need their operands but then fire-and-forget through
           the write queue. *)
        let start = Float.max start data_ready.(w) in
        inflight_len.(w) <- 0;
        let service = float_of_int n *. dram_cycles_per_txn in
        let begin_xfer = Float.max start !dram_next in
        dram_next := begin_xfer +. service;
        ready.(w) <- start +. 4.
    | Smem n ->
        let start = Float.max start data_ready.(w) in
        inflight_len.(w) <- 0;
        let service = float_of_int n *. smem_cycles_per_access in
        let begin_access = Float.max start !smem_next in
        smem_next := begin_access +. service;
        ready.(w) <- !smem_next +. float_of_int d.Device.smem_latency_cycles
    | Compute n ->
        let start = Float.max start data_ready.(w) in
        inflight_len.(w) <- 0;
        let service = float_of_int n *. fp_cycles_per_instr in
        let begin_fp = Float.max start !fp_next in
        fp_next := begin_fp +. service;
        ready.(w) <- !fp_next +. 4.
    | Barrier ->
        let start = Float.max start data_ready.(w) in
        inflight_len.(w) <- 0;
        let block = w / wpb in
        let first = block * wpb in
        let arrived = barrier_count.(block) + 1 in
        if arrived = wpb then begin
          (* Last warp arrives: release everyone. *)
          for i = first to first + wpb - 2 do
            let peer = waiters.(i) in
            parked.(peer) <- false;
            ready.(peer) <- start +. barrier_cost
          done;
          released := first;
          barrier_count.(block) <- 0;
          ready.(w) <- start +. barrier_cost
        end
        else begin
          parked.(w) <- true;
          waiters.(first + arrived - 1) <- w;
          barrier_count.(block) <- arrived
        end);
    let finished = pc.(w) >= Array.length trace in
    if finished then begin
      decr remaining;
      finish_time := Float.max !finish_time ready.(w)
    end;
    (* [w] is the heap's top: it leaves when it parked or finished, and
       otherwise its ready time only grew, so it sifts down. *)
    if finished || parked.(w) then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down heap ready !size 0;
    (* A released warp whose barrier was its last instruction finished
       when it parked; only the others become runnable again. *)
    if !released >= 0 then
      for i = !released to !released + wpb - 2 do
        let peer = waiters.(i) in
        if pc.(peer) < Array.length traces.(peer) then begin
          heap.(!size) <- peer;
          incr size;
          sift_up heap ready (!size - 1)
        end
      done
  done;
  let cycles_per_wave = Float.max !finish_time (Float.max !dram_next !issue_next) in
  let concurrent = cfg.blocks_per_smx * d.Device.smx_count in
  let waves = max 1 ((cfg.total_blocks + concurrent - 1) / concurrent) in
  let runtime_s = cycles_per_wave *. float_of_int waves /. (d.Device.clock_ghz *. 1e9) in
  if Kf_obs.Metrics.enabled () then begin
    Kf_obs.Metrics.incr m_runs;
    Kf_obs.Metrics.add m_instructions !instructions;
    Kf_obs.Metrics.add m_cycles (int_of_float (cycles_per_wave *. float_of_int waves))
  end;
  {
    cycles_per_wave;
    waves;
    runtime_s;
    issue_stall_fraction = (if cycles_per_wave > 0. then !idle_cycles /. cycles_per_wave else 0.);
    instructions = !instructions;
  }
