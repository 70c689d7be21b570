module Inputs = Kf_model.Inputs
module Program = Kf_ir.Program

type result = {
  groups : Grouping.groups;
  plan : Kf_fusion.Plan.t;
  cost : float;
  merges : int;
}

let solve obj =
  let n = Program.num_kernels (Objective.inputs obj).Inputs.program in
  let groups = ref (List.init n (fun k -> [ k ])) in
  let merges = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    (* Scan all kin-adjacent pairs for the single best improving merge. *)
    let best = ref None in
    List.iter
      (fun g ->
        List.iter
          (fun partner ->
            (* Consider each unordered pair once. *)
            if List.hd g < List.hd partner then begin
              match Grouping.merge_pair obj !groups g partner with
              | None -> ()
              | Some (merged, rest) ->
                  let before = Objective.group_cost obj g +. Objective.group_cost obj partner in
                  let delta = Objective.group_cost obj merged -. before in
                  (match !best with
                  | Some (d, _, _) when d <= delta -> ()
                  | _ -> if delta < -1e-15 then best := Some (delta, merged, rest))
            end)
          (Grouping.kin_adjacent_groups obj !groups g))
      !groups;
    match !best with
    | Some (_, merged, rest) ->
        groups := merged :: rest;
        incr merges;
        improved := true
    | None -> ()
  done;
  let final = Grouping.enforce_profitability obj (Kf_fusion.Plan.canonical_groups !groups) in
  {
    groups = final;
    plan = Kf_fusion.Plan.of_groups ~n final;
    cost = Objective.plan_cost obj final;
    merges = !merges;
  }
