module Fused = Kf_fusion.Fused

let saved_bytes (i : Inputs.t) (f : Fused.t) =
  let member_bytes =
    List.fold_left (fun acc k -> acc +. i.Inputs.measured_bytes.(k)) 0. f.Fused.members
  in
  Float.max 0. (member_bytes -. Fused.gmem_bytes i.Inputs.program f)

let runtime (i : Inputs.t) (f : Fused.t) =
  let sum = Inputs.original_sum i f.Fused.members in
  let bw = Inputs.effective_bandwidth i f.Fused.members in
  if bw <= 0. then sum
  else begin
    let saved_time = saved_bytes i f /. bw in
    let floor_time = Fused.gmem_bytes i.Inputs.program f /. bw in
    Float.max (sum -. saved_time) floor_time
  end

(* Arena backend.  [runtime] above folds members in execution order three
   ways (bytes for [saved_bytes], runtimes for [original_sum], bytes and
   runtimes again inside [effective_bandwidth]); the pairs are bitwise
   equal folds, so each is computed once here. *)
module A = Feature_arena

let arena_runtime scr ~dev =
  let a = A.arena scr in
  if A.member_count scr = 1 then (A.measured_runtime a ~dev).(A.member scr 0)
  else begin
    let rt = A.measured_runtime a ~dev and by = A.measured_bytes a ~dev in
    let member_bytes = ref 0. and sum = ref 0. in
    for i = 0 to A.member_count scr - 1 do
      member_bytes := !member_bytes +. by.(A.member scr i)
    done;
    for i = 0 to A.member_count scr - 1 do
      sum := !sum +. rt.(A.member scr i)
    done;
    let member_bytes = !member_bytes and sum = !sum in
    let gmem = A.gmem_bytes scr in
    let bw = if sum <= 0. then 0. else member_bytes /. sum in
    if bw <= 0. then sum
    else begin
      let saved_time = Float.max 0. (member_bytes -. gmem) /. bw in
      let floor_time = gmem /. bw in
      Float.max (sum -. saved_time) floor_time
    end
  end
