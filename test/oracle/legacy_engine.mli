(** The warp engine with a linear scan: before each issued instruction it
    scans every resident warp in index order for the unparked, unfinished
    one with the earliest ready time.  {!Kf_sim.Engine.run} must return
    the same result record bit for bit, and raise the same errors. *)

val run : Kf_sim.Engine.config -> Kf_sim.Engine.result

val measure :
  device:Kf_gpu.Device.t -> Kf_ir.Program.t -> Kf_sim.Trace.lowered -> Kf_sim.Measure.result
(** What {!Kf_sim.Measure.kernel} and {!Kf_sim.Measure.fused} return for
    a lowered kernel, with {!run} in place of the library engine. *)
