(* Anchor to committed results: decisions at the parameters of two
   committed benchmark files must reproduce their recorded figures.
   - BENCH_pr2.json: cloverleaf and tealeaf, measured speedups 1.0847
     and 1.4481 (population 60, 300 generations, stall 50, seed 42).
   - BENCH_pr10.json: video, vertical against horizontal search (200
     generations, stall 40): 3 launches, 2.2503x projected and 2.6569x
     measured.
   The anchors' digests are also compared with the ones committed in
   anchor_digests.txt; a difference is reported as [plans_changed], not
   as a failure. *)

module Hgga = Kf_search.Hgga
module Plan = Kf_fusion.Plan
module Pipeline = Kfuse.Pipeline

let digests_file = Filename.concat "perfbench" "anchor_digests.txt"

let pr2_params = { Hgga.default_params with Hgga.max_generations = 300; stall_generations = 50 }
let pr10_params = { pr2_params with Hgga.max_generations = 200; stall_generations = 40 }

let round4 x = Float.round (x *. 1e4) /. 1e4

let decide params program =
  let ctx = Pipeline.prepare ~device:Common.device program in
  let r = Hgga.solve ~params (Pipeline.objective ctx) in
  let o = Pipeline.apply ctx r in
  ( r,
    o,
    Common.digest ~plan:r.Hgga.plan ~cost:r.Hgga.cost
      ~evaluations:r.Hgga.stats.Hgga.evaluations ~rung:"-" )

type outcome = {
  failures : string list;
  digests : (string * string) list;
}

let run () =
  let failures = ref [] in
  let expect name got want =
    if got <> want then
      failures := Printf.sprintf "anchor %s: got %s, committed %s" name got want :: !failures
  in
  let speedup name program want =
    let _, o, d = decide pr2_params program in
    expect (name ^ " measured speedup") (Printf.sprintf "%.4f" (round4 o.Pipeline.speedup)) want;
    (name, d)
  in
  let clover = speedup "cloverleaf" (Kf_workloads.Cloverleaf.program ()) "1.0847" in
  let tea = speedup "tealeaf" (Kf_workloads.Tealeaf.program ()) "1.4481" in
  let video = Kf_workloads.Video.generate Kf_workloads.Video.default in
  let rv, ov, dv = decide pr10_params video in
  let rh, oh, dh = decide { pr10_params with Hgga.horizontal = true } video in
  expect "video launches" (string_of_int (Plan.num_units rh.Hgga.plan)) "3";
  expect "video projected improvement"
    (Printf.sprintf "%.4f" (round4 (rv.Hgga.cost /. rh.Hgga.cost)))
    "2.2503";
  expect "video measured improvement"
    (Printf.sprintf "%.4f" (round4 (ov.Pipeline.fused_runtime /. oh.Pipeline.fused_runtime)))
    "2.6569";
  { failures = List.rev !failures; digests = [ clover; tea; ("video-vertical", dv); ("video-horizontal", dh) ] }

let read_committed () =
  match open_in digests_file with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | line -> (
                match String.split_on_char ' ' (String.trim line) with
                | [ name; d ] -> go ((name, d) :: acc)
                | _ -> go acc)
          in
          go [])

(* Anchors whose digest differs from (or is missing in) the committed file. *)
let plans_changed digests =
  let committed = read_committed () in
  List.length (List.filter (fun (name, d) -> List.assoc_opt name committed <> Some d) digests)
