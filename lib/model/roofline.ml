module Device = Kf_gpu.Device
module Fused = Kf_fusion.Fused

let attainable_gflops (i : Inputs.t) f =
  let d = i.Inputs.device in
  let p = i.Inputs.program in
  let flops = Fused.total_flops p f in
  let bytes = Fused.gmem_bytes p f in
  let oi = if bytes > 0. then flops /. bytes else Float.infinity in
  Float.min d.Device.peak_gflops (oi *. d.Device.gmem_bandwidth_gbs)

let runtime i f =
  let flops = Fused.total_flops i.Inputs.program f in
  flops /. (attainable_gflops i f *. 1e9)

module A = Feature_arena

let arena_runtime scr ~dev =
  let a = A.arena scr in
  if A.member_count scr = 1 then (A.measured_runtime a ~dev).(A.member scr 0)
  else begin
    let d = A.device a dev in
    let flops = A.total_flops scr in
    let bytes = A.gmem_bytes scr in
    let oi = if bytes > 0. then flops /. bytes else Float.infinity in
    let attainable = Float.min d.Device.peak_gflops (oi *. d.Device.gmem_bandwidth_gbs) in
    flops /. (attainable *. 1e9)
  end
