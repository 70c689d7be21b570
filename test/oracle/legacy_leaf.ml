module Inputs = Kf_model.Inputs
module Fused = Kf_fusion.Fused
module Device = Kf_gpu.Device
module Exec_order = Kf_graph.Exec_order
module Objective = Kf_search.Objective

let project ~model i f =
  match model with
  | Objective.Proposed -> Kf_model.Projection.runtime i f
  | Objective.Roofline -> Kf_model.Roofline.runtime i f
  | Objective.Simple -> Kf_model.Simple_model.runtime i f
  | Objective.Mwp -> Kf_model.Mwp.runtime i f

let verdict ~model (i : Inputs.t) group : Objective.verdict =
  match group with
  | [ k ] ->
      let cost = i.Inputs.measured_runtime.(k) in
      { feasible = true; cost; orig_sum = cost }
  | _ ->
      let orig_sum = Inputs.original_sum i group in
      let infeasible : Objective.verdict = { feasible = false; cost = Float.infinity; orig_sum } in
      if not (Kf_ir.Metadata.kinship_connected i.Inputs.meta group) then infeasible
      else if Exec_order.group_spans_sync i.Inputs.exec group then infeasible
      else if not (Exec_order.group_is_convex i.Inputs.exec group) then infeasible
      else begin
        let f = Fused.build ~device:i.Inputs.device ~meta:i.Inputs.meta ~exec:i.Inputs.exec ~group in
        let d = i.Inputs.device in
        if
          f.Fused.vertical_hazard
          || f.Fused.smem_bytes_per_block > d.Device.smem_per_smx
          || f.Fused.registers_per_thread >= d.Device.max_registers_per_thread
        then infeasible
        else { feasible = true; cost = project ~model i f; orig_sum }
      end

let guard ~model i _ g = verdict ~model i g

let plan_cost ~model i groups =
  List.fold_left
    (fun acc g -> acc +. (verdict ~model i g).Objective.cost)
    0. (Kf_fusion.Plan.canonical_groups groups)
