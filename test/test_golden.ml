(* Golden HGGA results: the plan, the cost's bits, the evaluation count
   and the improvement history of fixed searches, recorded once and
   compared exactly.  Any change to the operators, their random draws,
   the dedup or the evaluation order moves at least one of these; a
   representation or speed change must leave all of them alone. *)

module Hgga = Kf_search.Hgga
module Greedy = Kf_search.Greedy
module Plan = Kf_fusion.Plan
module Pipeline = Kfuse.Pipeline
module Suite = Kf_workloads.Suite

let device = Kf_gpu.Device.k20x
let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let digest (r : Hgga.result) =
  let s = r.Hgga.stats in
  Printf.sprintf "plan=%s cost=%s evals=%d hist=%s"
    (Format.asprintf "%a" Plan.pp r.Hgga.plan)
    (bits r.Hgga.cost) s.Hgga.evaluations
    (String.concat ";"
       (List.map (fun (g, c) -> Printf.sprintf "%d:%s" g (bits c)) s.Hgga.improvement_history))

let solve ?checkpoint ?resume_from ?seed_plans params program =
  let ctx = Pipeline.prepare ~device program in
  Hgga.solve ~params ?checkpoint ?resume_from ?seed_plans (Pipeline.objective ctx)

let pr10 =
  { Hgga.default_params with Hgga.max_generations = 200; stall_generations = 40; horizontal = true }

(* perfbench oneshot's Table V point parameters *)
let suite_params seed =
  { Hgga.paper_params with Hgga.max_generations = 30; stall_generations = 30; seed }

let suite20 () =
  Suite.generate { Suite.default with Suite.kernels = 20; arrays = 40; seed = 7 }

let clover = Kf_workloads.Cloverleaf.program
let video () = Kf_workloads.Video.generate Kf_workloads.Video.default

let golden ~plan ~cost ~evals ~hist =
  Printf.sprintf "plan=%s cost=%s evals=%d hist=%s" plan cost evals (String.concat ";" hist)

let pin name want got = Alcotest.check Alcotest.string name want (digest got)

let with_temp f =
  let path = Filename.temp_file "kfuse_golden" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_cloverleaf () =
  pin "cloverleaf" (golden ~plan:"{0,1 | 2,3 | 4,6 | 5 | 7,8,9 | 10,11 | 12 | 13}"
       ~cost:"3f6ad9c122278988" ~evals:171
       ~hist:[ "0:3f6c4ad2945ea2c6"; "1:3f6b9b5395e6974a"; "2:3f6ad9c122278988" ])
    (solve Hgga.default_params (clover ()))

let test_video () =
  pin "video horizontal" (golden ~plan:"{0 + 11 + 14 + 17 | 1,2 + 3,4,5 + 6,7,8 | 9,10 + 12,13 + 15,16}"
       ~cost:"3f034c5c357bf132" ~evals:330
       ~hist:[ "0:3f165569bfb12d1a"; "1:3f1371b65a6aeab8"; "2:3f11e1eb627d8d3c";
         "3:3f1082b6e114ab07"; "4:3f1015234cccacc7"; "5:3f0d026124c4481e";
         "7:3f074b682cc89ae8"; "11:3f07445c276911a4";
         "12:3f0657e6a0da6ce5"; "13:3f0650da9b7ae3a2";
         "18:3f0649ce961b5a60"; "27:3f05b49feeafc27b";
         "30:3f05ad93e9503939"; "33:3f034c5c357bf132" ])
    (solve pr10 (video ()))

(* population 100, 300 generations, no stall stop *)
let long_search =
  { Hgga.default_params with Hgga.population_size = 100; max_generations = 300;
    stall_generations = 300 }

let test_long_search () =
  List.iter
    (fun (name, program, want, speedup) ->
      let ctx = Pipeline.prepare ~device program in
      let r = Hgga.solve ~params:long_search (Pipeline.objective ctx) in
      pin name want r;
      Alcotest.check Alcotest.string (name ^ " measured speedup bits") speedup
        (bits (Pipeline.apply ctx r).Pipeline.speedup))
    [
      ("motivating", Kf_workloads.Motivating.program (),
       golden ~plan:"{0,1 | 2 | 3,4}" ~cost:"3f73cce85288def0" ~evals:5
         ~hist:[ "0:3f73cce85288def0" ],
       (* 1.0240489601070637 *) "3ff0628129929a34");
      ("tealeaf", Kf_workloads.Tealeaf.program (),
       golden ~plan:"{0,1 | 2,4 | 3 | 5,6,7 | 8 | 9,10,11 | 12 | 13,14,15 | 16,17}"
         ~cost:"3f56bf411b60e6a6" ~evals:369
         ~hist:[ "0:3f5b22c281d52ee3"; "1:3f56bf411b60e6a6" ],
       (* 1.448071648178705 *) "3ff72b4d2d3313e4");
      ("cloverleaf", clover (),
       golden ~plan:"{0,1 | 2,3 | 4,5 | 6 | 7,8,9 | 10,11 | 12 | 13}" ~cost:"3f6ad9c122278988"
         ~evals:193 ~hist:[ "0:3f6b945b661479b4"; "1:3f6ad9c122278988" ],
       (* 1.0846881589711865 *) "3ff15ae1f8923c31");
    ]

(* Horizontal composition beats the vertical-only search on video, in
   projection and in the simulator, with fewer launches. *)
let test_video_vertical () =
  let ctx = Pipeline.prepare ~device (video ()) in
  let run params = Hgga.solve ~params (Pipeline.objective ctx) in
  let rv = run { pr10 with Hgga.horizontal = false } and rh = run pr10 in
  pin "video vertical" (golden ~plan:"{0 | 1,2 | 3 | 4,5 | 6 | 7,8 | 9,10 | 11 | 12,13 | 14 | 15,16 | 17}"
       ~cost:"3f15b69df5174cf8" ~evals:83 ~hist:[ "0:3f165569bfb12d1a"; "2:3f15b69df5174cf8" ])
    rv;
  let fused r = (Pipeline.apply ctx r).Pipeline.fused_runtime in
  let six = Printf.sprintf "%.6f" in
  Alcotest.check Alcotest.string "projected improvement" "2.250288" (six (rv.Hgga.cost /. rh.Hgga.cost));
  Alcotest.check Alcotest.string "measured improvement" "2.656890" (six (fused rv /. fused rh));
  Alcotest.check Alcotest.bool "fewer launches" true
    (Plan.num_units rh.Hgga.plan < Plan.num_units rv.Hgga.plan)

let test_homme () =
  pin "homme horizontal" (golden ~plan:"{0,1 + 6,9 | 2,3 | 4,5,8,12 | 7,10 + 11 | 13,38 + 28,36 | 14,25,37 + 42 | 15,17 + 33 | 16,18,20 + 31,40 | 19,39 + 21,22,27,30 | 23,24,32 + 35 | 26,34 + 29,41}"
       ~cost:"3f7185da1fe61ccb" ~evals:8415
       ~hist:[ "0:3f75312c3b83ea02"; "1:3f72c7025f9429a4"; "2:3f7200f4dbf740ab";
         "4:3f71f8c866981097"; "5:3f71f277b357c592"; "6:3f71e5a5cdc8158c";
         "7:3f71da4ade7661ad"; "8:3f71d8ec74daa257"; "9:3f71ccbeab2fddd3";
         "10:3f71c5996a617e4b"; "11:3f71ac674f6db149";
         "13:3f71a05542d02408"; "17:3f719d1b9b8dfafb";
         "19:3f7197f757d23b18"; "27:3f7197a2e33f90f6";
         "31:3f719399d41ad542"; "34:3f7185da1fe61ccb" ])
    (solve
       { Hgga.default_params with Hgga.horizontal = true; max_generations = 60 }
       (Kf_workloads.Homme.program ()))

let test_suite20 () =
  pin "suite 20 kernels" (golden ~plan:"{0,6,12 | 1,3 | 2,4 | 5,7 | 8,9 | 10,11 | 13 | 14,15 | 16,17 | 18,19}"
       ~cost:"3f8b20d1c2e1e74c" ~evals:6626
       ~hist:[ "0:3f8f07b3a3236016"; "1:3f8b20d1c2e1e74c" ])
    (solve (suite_params 42) (suite20 ()))

let test_islands () =
  let params = { Hgga.default_params with Hgga.islands = 4 } in
  let want = (golden ~plan:"{0,1 | 2,3 | 4,5 | 6 | 7,8,9 | 10,11 | 12 | 13}"
       ~cost:"3f6ad9c122278988" ~evals:164
       ~hist:[ "0:3f6c954105f2cdb0"; "1:3f6ad9c122278988" ]) in
  pin "4 islands, 1 domain" want (solve { params with Hgga.domains = 1 } (clover ()));
  pin "4 islands, 2 domains" want (solve { params with Hgga.domains = 2 } (clover ()))

let test_seed_plans () =
  let program = clover () in
  let seed = (Greedy.solve (Pipeline.objective (Pipeline.prepare ~device program))).Greedy.groups in
  pin "seeded" (golden ~plan:"{0,1 | 2,3 | 4,5 | 6 | 7,8,9 | 10,11 | 12 | 13}"
       ~cost:"3f6ad9c122278988" ~evals:166
       ~hist:[ "0:3f6b9b5395e6974a"; "1:3f6ae89faf06735e"; "4:3f6ad9c122278988" ])
    (solve ~seed_plans:[ seed ] { Hgga.default_params with Hgga.max_generations = 40 } program)

(* Killed at generation [stop_at], resumed to the full horizon: the
   resumed result is pinned, and equals the uninterrupted one. *)
let resume_case name params program ~stop_at want =
  with_temp (fun path ->
      let full = solve params (program ()) in
      ignore
        (solve
           ~checkpoint:{ Hgga.path; every = 5 }
           { params with Hgga.max_generations = stop_at }
           (program ()));
      let resumed = solve ~resume_from:path params (program ()) in
      pin (name ^ " resumed") want resumed;
      Alcotest.check Alcotest.string (name ^ " resumed = uninterrupted")
        (Format.asprintf "%a" Plan.pp full.Hgga.plan)
        (Format.asprintf "%a" Plan.pp resumed.Hgga.plan))

let test_resume_vertical () =
  resume_case "vertical"
    { Hgga.default_params with Hgga.max_generations = 30; stall_generations = 1000 }
    clover ~stop_at:15 (golden ~plan:"{0,1 | 2,3 | 4,6 | 5 | 7,8,9 | 10,11 | 12 | 13}"
       ~cost:"3f6ad9c122278988" ~evals:292
       ~hist:[ "0:3f6c4ad2945ea2c6"; "1:3f6b9b5395e6974a"; "2:3f6ad9c122278988" ])

let test_resume_horizontal () =
  resume_case "horizontal"
    { pr10 with Hgga.max_generations = 30; stall_generations = 1000 }
    video ~stop_at:15 (golden ~plan:"{0 + 11 + 14 + 17 | 1,2 | 3,4,5 + 6,7,8 | 9,10 + 12,13 + 15,16}"
       ~cost:"3f05ad93e9503939" ~evals:240
       ~hist:[ "0:3f165569bfb12d1a"; "1:3f1371b65a6aeab8"; "2:3f11e1eb627d8d3c";
         "3:3f1082b6e114ab07"; "4:3f1015234cccacc7"; "5:3f0d026124c4481e";
         "7:3f074b682cc89ae8"; "11:3f07445c276911a4";
         "12:3f0657e6a0da6ce5"; "13:3f0650da9b7ae3a2";
         "18:3f0649ce961b5a60"; "27:3f05b49feeafc27b";
         "30:3f05ad93e9503939" ])

(* perfbench oneshot's first portfolio point: the 20-kernel suite point
   of generator 1, searched on the K20X with the other four devices of
   the extended table as its portfolio.  The primary result is pinned
   like every other search; the front by its length and a digest of
   each entry's plan and cost-vector bits. *)
let test_portfolio () =
  let program = Suite.generate { Suite.default with Suite.kernels = 20; arrays = 40; seed = 1 } in
  let devices = List.filter (fun d -> not (Kf_gpu.Device.equal d device)) Kf_gpu.Device.extended in
  let po = Pipeline.portfolio ~params:(suite_params 42) ~devices ~device program in
  let pr = po.Pipeline.portfolio in
  pin "portfolio primary" (golden ~plan:"{0,1 | 2,3,4 | 5,7 | 6 | 8,9 | 10,11 | 12,13 | 14,15 | 16,17 | 18,19}"
       ~cost:"3f8904709549ea99" ~evals:6824
       ~hist:[ "0:3f8dbabb5d320561"; "1:3f89a02c0f0a0ba7"; "3:3f8940fa2b3741ff"; "5:3f8904709549ea99" ])
    pr.Hgga.primary;
  let entry (e : Kf_search.Objective.pareto_entry) =
    let group g = String.concat "," (List.map string_of_int g) in
    Printf.sprintf "%s=%s" (String.concat "|" (List.map group e.Kf_search.Objective.pf_plan))
      (String.concat "," (Array.to_list (Array.map bits e.Kf_search.Objective.pf_costs)))
  in
  let front = String.concat "\n" (List.map entry pr.Hgga.front) in
  Alcotest.check Alcotest.string "portfolio front" "29 entries, 9e92b13566eaeec9f68efd7b7cad0c7d"
    (Printf.sprintf "%d entries, %s" (List.length pr.Hgga.front) (Digest.to_hex (Digest.string front)))

let suite =
  [
    Alcotest.test_case "cloverleaf, vertical, default parameters" `Quick test_cloverleaf;
    Alcotest.test_case "video, horizontal, 200 generations" `Quick test_video;
    Alcotest.test_case "homme, horizontal, 60 generations" `Quick test_homme;
    Alcotest.test_case "Table V 20-kernel point, paper parameters" `Quick test_suite20;
    Alcotest.test_case "cloverleaf, 4 islands, 1 and 2 domains" `Quick test_islands;
    Alcotest.test_case "cloverleaf, seeded with the greedy plan" `Quick test_seed_plans;
    Alcotest.test_case "resume, vertical" `Quick test_resume_vertical;
    Alcotest.test_case "resume, horizontal" `Quick test_resume_horizontal;
    Alcotest.test_case "motivating, tealeaf, cloverleaf, 300 generations" `Quick test_long_search;
    Alcotest.test_case "video, vertical against horizontal" `Quick test_video_vertical;
    Alcotest.test_case "Table V 20-kernel point, five-device portfolio" `Quick test_portfolio;
  ]
