(* Horizontal composition tests: pack legality, mode-aware canonical
   signatures, the video workload's horizontal-beats-vertical win, the
   determinism contract with horizontal search on, and snapshots. *)

module Device = Kf_gpu.Device
module Plan = Kf_fusion.Plan
module Objective = Kf_search.Objective
module Hgga = Kf_search.Hgga
module Snapshot = Kf_search.Snapshot
module Pipeline = Kfuse.Pipeline
module Rng = Kf_util.Rng
module Video = Kf_workloads.Video

let check = Alcotest.check
let device = Device.k20x

(* A small video workload: 4 independent frame chains of 3 stages each,
   12 kernels.  Frame f owns kernels 3f, 3f+1, 3f+2 (a producer-consumer
   chain); any cross-frame pair is independent. *)
let spec = { Video.default with Video.frames = 4; stages = 3 }
let program () = Video.generate spec
let n = spec.Video.frames * spec.Video.stages

let ctx = lazy (Pipeline.prepare ~device (program ()))

let fast_params =
  { Hgga.default_params with Hgga.max_generations = 60; stall_generations = 20 }

let solve ?(params = fast_params) ?(horizontal = true) ?(domains = 1) ?guard ?checkpoint
    ?resume_from () =
  let ctx = Lazy.force ctx in
  let obj = Pipeline.objective ?guard ctx in
  Hgga.solve
    ~params:{ params with Hgga.horizontal; domains }
    ?checkpoint ?resume_from obj

let same_result a b =
  Plan.equal a.Hgga.plan b.Hgga.plan
  && Int64.bits_of_float a.Hgga.cost = Int64.bits_of_float b.Hgga.cost
  && a.Hgga.stats.Hgga.improvement_history = b.Hgga.stats.Hgga.improvement_history
  && a.Hgga.stats.Hgga.evaluations = b.Hgga.stats.Hgga.evaluations

(* ------------------------------------------------------------------ *)
(* Random compositions for the signature properties                    *)

(* A random composition over kernels 0..n-1: random vertical partition,
   then random packing of the groups into packs.  Legality is irrelevant
   to signature canonicalization, so groups are arbitrary subsets. *)
let random_comps rng =
  let ids = Array.init n Fun.id in
  (* Fisher-Yates *)
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let groups = ref [] and i = ref 0 in
  while !i < n do
    let len = min (n - !i) (1 + Rng.int rng 3) in
    groups := Array.to_list (Array.sub ids !i len) :: !groups;
    i := !i + len
  done;
  let packs = ref [] in
  List.iter
    (fun g ->
      match !packs with
      | pack :: rest when List.length pack < 3 && Rng.int rng 2 = 0 ->
          packs := (g :: pack) :: rest
      | _ -> packs := [ g ] :: !packs)
    !groups;
  !packs

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Reorder packs, planes within packs, and members within planes. *)
let scramble rng comps =
  shuffle rng (List.map (fun pack -> shuffle rng (List.map (shuffle rng) pack)) comps)

let sig_of comps =
  let sb = Plan.Sigbuf.create () in
  Plan.Sigbuf.encode_plan sb comps;
  (Plan.Sigbuf.canonical sb, Plan.Sigbuf.extract sb)

let prop_signature_canonical seed =
  let rng = Rng.create seed in
  let comps = random_comps rng in
  let canon, s = sig_of comps in
  let canon', s' = sig_of (scramble rng comps) in
  canon = canon' && s = s'
  && canon = Plan.canonical_comps comps
  && Plan.canonical_comps canon = canon

(* An all-singleton composition must encode byte-identically to the
   whole-plan signature of the underlying vertical partition, so
   vertical plans keep their persisted keys. *)
let prop_singleton_sig_matches_vertical seed =
  let rng = Rng.create seed in
  let comps = random_comps rng in
  let groups = List.concat comps in
  let _, s = sig_of (List.map (fun g -> [ g ]) groups) in
  s = Plan.plan_signature groups

(* of_composed round-trips the canonical composition, and its vertical
   projection is the flattened plane list. *)
let prop_of_composed_roundtrip seed =
  let rng = Rng.create seed in
  let comps = random_comps rng in
  let plan = Plan.of_composed ~n comps in
  let canon = Plan.canonical_comps comps in
  Plan.composed plan = canon
  && Plan.groups plan = Plan.canonical_groups (List.concat comps)
  && Plan.num_units plan = List.length canon
  && Plan.is_vertical plan = List.for_all (fun p -> List.length p = 1) canon

let qcheck name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name QCheck.small_int prop)

(* ------------------------------------------------------------------ *)
(* Pack legality                                                       *)

let singles lo hi = List.init (hi - lo) (fun i -> [ [ lo + i ] ])

let test_dependent_planes_rejected () =
  (* Kernels 0 and 1 are stages 0 and 1 of frame 0: kernel 0 writes the
     array kernel 1 reads.  Packing them as two planes of one launch is
     illegal — planes run concurrently. *)
  let ctx = Lazy.force ctx in
  check Alcotest.bool "frame-internal pair is dependent" false
    (Plan.planes_independent ~exec:ctx.Pipeline.exec [ [ 0 ]; [ 1 ] ]);
  let plan = Plan.of_composed ~n ([ [ [ 0 ]; [ 1 ] ] ] @ singles 2 n) in
  let violations =
    Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec plan
  in
  check Alcotest.bool "Planes_dependent raised" true
    (List.exists
       (function Plan.Planes_dependent _ -> true | _ -> false)
       violations)

let test_independent_planes_accepted () =
  (* Kernels 0 and 3 are stage 0 of frames 0 and 1: disjoint array
     pools, so the pack is legal. *)
  let ctx = Lazy.force ctx in
  check Alcotest.bool "cross-frame pair is independent" true
    (Plan.planes_independent ~exec:ctx.Pipeline.exec [ [ 0 ]; [ 3 ] ]);
  let plan =
    Plan.of_composed ~n ([ [ [ 0 ]; [ 3 ] ]; [ [ 1 ] ]; [ [ 2 ] ] ] @ singles 4 n)
  in
  let violations =
    Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec plan
  in
  check Alcotest.bool "no Planes_dependent" false
    (List.exists
       (function Plan.Planes_dependent _ -> true | _ -> false)
       violations);
  check Alcotest.int "one horizontal pack" 1 (Plan.horizontal_pack_count plan);
  check Alcotest.int "two planes" 2 (Plan.horizontal_plane_count plan)

(* Fully-fused frame chains packed horizontally: the shape the search
   should find on this workload, checked legal end to end. *)
let test_full_chains_pack_legal () =
  let ctx = Lazy.force ctx in
  let chains =
    List.init spec.Video.frames (fun f ->
        List.init spec.Video.stages (fun s -> (f * spec.Video.stages) + s))
  in
  let plan = Plan.of_composed ~n [ chains ] in
  check Alcotest.bool "packed chains validate" true
    (Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec plan = [])

(* ------------------------------------------------------------------ *)
(* The horizontal win on the video workload                            *)

let hresult = lazy (solve ())
let vresult = lazy (solve ~horizontal:false ())

let test_horizontal_beats_vertical () =
  let rh = Lazy.force hresult and rv = Lazy.force vresult in
  let ctx = Lazy.force ctx in
  check Alcotest.bool "vertical plan is vertical" true (Plan.is_vertical rv.Hgga.plan);
  check Alcotest.bool "found a horizontal pack" true
    (Plan.horizontal_pack_count rh.Hgga.plan >= 1);
  check Alcotest.bool "winner validates clean" true
    (Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec
       rh.Hgga.plan
    = []);
  check Alcotest.bool "strictly lower projected cost" true
    (rh.Hgga.cost < rv.Hgga.cost)

let test_measured_agrees_with_projection () =
  (* kf_sim must agree with the projection on the direction of the win:
     the horizontal plan's measured fused runtime beats vertical-only. *)
  let ctx = Lazy.force ctx in
  let oh = Pipeline.apply ctx (Lazy.force hresult)
  and ov = Pipeline.apply ctx (Lazy.force vresult) in
  check Alcotest.bool "measured horizontal faster" true
    (oh.Pipeline.fused_runtime < ov.Pipeline.fused_runtime)

(* ------------------------------------------------------------------ *)
(* Determinism contract with horizontal search on                      *)

let test_determinism_matrix () =
  (* Fixed islands: bit-identical results for any domain count, and
     with the per-candidate oracle leaf in place of the arena leaf. *)
  let params = { fast_params with Hgga.islands = 2 } in
  let base = solve ~params () in
  let oracle =
    Legacy_leaf.guard ~model:Objective.Proposed (Lazy.force ctx).Pipeline.inputs
  in
  List.iter
    (fun (name, domains, guard) ->
      let r = solve ~params ~domains ?guard () in
      check Alcotest.bool name true (same_result base r))
    [
      ("domains 4", 4, None);
      ("oracle leaf", 1, Some oracle);
      ("oracle leaf, domains 4", 4, Some oracle);
    ]

let test_vertical_only_unchanged () =
  (* The --no-horizontal escape hatch: two vertical-only runs are
     bit-identical and never produce a composed plan — the historical
     code path, byte for byte. *)
  let a = Lazy.force vresult and b = solve ~horizontal:false () in
  check Alcotest.bool "vertical runs bit-identical" true (same_result a b);
  check Alcotest.int "no packs" 0 (Plan.horizontal_pack_count a.Hgga.plan)

let test_mutation_walk_stays_canonical () =
  (* Random mutation walk through the composed space: every individual
     the search returns is canonical and its signature is stable. *)
  let r = Lazy.force hresult in
  let comps = Plan.composed r.Hgga.plan in
  check Alcotest.bool "champion composition canonical" true
    (Plan.canonical_comps comps = comps)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)

let horizontal_snapshot () =
  {
    Snapshot.population_size = 2;
    seed = 7;
    n = 6;
    generation = 3;
    stall = 1;
    evaluations = 20;
    wall_time_s = 0.5;
    faults =
      { Objective.injected = 0; trapped = 0; corrupted = 0; retries = 0;
        recovered = 0; quarantined = 0 };
    migration_cursor = 0;
    group_cache = { Objective.hits = 5; misses = 3; evictions = 0; size = 0 };
    plan_cache = { Objective.hits = 1; misses = 1; evictions = 0; size = 0 };
    horizontal = true;
    best = [ [ [ 0; 1 ]; [ 2 ] ]; [ [ 3 ] ]; [ [ 4; 5 ] ] ];
    history = [ (0, 1.0); (2, 0.75) ];
    islands =
      [
        {
          Snapshot.rng_state = 123456789L;
          population =
            [
              [ [ [ 0; 1 ]; [ 2 ] ]; [ [ 3 ] ]; [ [ 4; 5 ] ] ];
              [ [ [ 0 ] ]; [ [ 1; 2 ]; [ 3 ] ]; [ [ 4 ] ]; [ [ 5 ] ] ];
            ];
        };
      ];
  }

let test_snapshot_horizontal_roundtrip () =
  let snap = horizontal_snapshot () in
  let back = Snapshot.of_string (Snapshot.render snap) in
  check Alcotest.bool "horizontal roundtrip identical" true (snap = back)

let test_snapshot_vertical_roundtrip () =
  (* A vertical checkpoint stores the same packs field, all single-plane,
     with the [horizontal] flag off; both survive the round trip, and a
     multi-plane pack under the vertical flag is refused. *)
  let vpacks = List.map (fun g -> [ g ]) in
  let snap =
    { (horizontal_snapshot ()) with
      Snapshot.horizontal = false;
      best = vpacks [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4; 5 ] ];
      islands =
        [
          {
            Snapshot.rng_state = 123456789L;
            population =
              [ vpacks [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4; 5 ] ];
                vpacks [ [ 0 ]; [ 1; 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ] ];
          };
        ];
    }
  in
  let back = Snapshot.of_string (Snapshot.render snap) in
  check Alcotest.bool "vertical roundtrip identical" true (snap = back);
  check Alcotest.bool "flag kept" false back.Snapshot.horizontal;
  match
    Snapshot.of_string
      (Snapshot.render { snap with Snapshot.best = (horizontal_snapshot ()).Snapshot.best })
  with
  | exception Snapshot.Malformed _ -> ()
  | _ -> Alcotest.fail "vertical snapshot accepted a multi-plane pack"

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume with horizontal search                          *)

let with_temp_snapshot f =
  let path = Filename.temp_file "kfuse_horizontal" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_checkpoint_resume_identical () =
  (* Kill after 10 generations (snapshot at gen 10), resume to the full
     horizon: bit-identical final plan and cost, like the vertical
     resume contract in test_robust. *)
  with_temp_snapshot (fun path ->
      let params =
        { fast_params with Hgga.islands = 2; stall_generations = 1000 }
      in
      let full = solve ~params () in
      let _killed =
        solve
          ~params:{ params with Hgga.max_generations = 10 }
          ~checkpoint:{ Hgga.path; every = 5 } ()
      in
      let resumed = solve ~params ~resume_from:path () in
      check Alcotest.bool "same final plan" true
        (Plan.equal full.Hgga.plan resumed.Hgga.plan);
      check Alcotest.bool "same final cost" true
        (Int64.bits_of_float full.Hgga.cost = Int64.bits_of_float resumed.Hgga.cost);
      check Alcotest.int "same generation count" full.Hgga.stats.Hgga.generations
        resumed.Hgga.stats.Hgga.generations)

let test_resume_requires_horizontal () =
  (* A snapshot carrying compositions cannot be resumed by a
     vertical-only search: the composed individuals would be silently
     flattened, so the loader refuses. *)
  with_temp_snapshot (fun path ->
      let _ =
        solve
          ~params:{ fast_params with Hgga.max_generations = 10; stall_generations = 1000 }
          ~checkpoint:{ Hgga.path; every = 5 } ()
      in
      match solve ~horizontal:false ~resume_from:path () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "vertical resume of a horizontal snapshot succeeded")

let test_horizontal_excludes_portfolio () =
  (* Portfolio rows are keyed by vertical group signatures; combining
     them with composed plans is rejected up front. *)
  let ctx = Lazy.force ctx in
  let obj = Pipeline.objective ~portfolio:[ ctx.Pipeline.inputs ] ctx in
  match
    Hgga.solve ~params:{ fast_params with Hgga.horizontal = true } obj
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "horizontal + portfolio solve succeeded"

(* ------------------------------------------------------------------ *)
(* Plane-order independence under the execution oracle                 *)

module Fused_program = Kf_fusion.Fused_program
module Sem = Kf_exec.Semantics

(* The oracle executes every site, so run a scaled-down grid: fusion
   legality and semantics are size-invariant (paper §II-C). *)
let scaled =
  lazy
    (let p =
       Kf_ir.Program.with_grid (program ())
         (Kf_ir.Grid.make ~nx:64 ~ny:16 ~nz:2 ~block_x:32 ~block_y:8)
     in
     let meta = Kf_ir.Metadata.build p in
     let exec = Kf_graph.Exec_order.build (Kf_graph.Datadep.build p) in
     (p, meta, exec))

let reorder_planes f (fp : Fused_program.t) =
  {
    fp with
    Fused_program.units =
      List.map
        (function Fused_program.Horizontal planes -> Fused_program.Horizontal (f planes) | u -> u)
        fp.Fused_program.units;
  }

(* [Semantics.run_fused] runs a pack's planes in canonical order; legal
   planes are data-independent, so reversed and seeded-permutation
   orders must leave a bitwise-identical state. *)
let plane_orders_agree rng plan =
  let p, meta, exec = Lazy.force scaled in
  let fp = Fused_program.build ~device ~meta ~exec plan in
  let reference = Sem.run_fused fp in
  List.for_all
    (fun order ->
      let v = Sem.compare_states p reference (Sem.run_fused (reorder_planes order fp)) in
      v.Sem.equivalent && v.Sem.max_abs_diff = 0.)
    [ List.rev; shuffle rng ]

let test_winner_plane_order () =
  let r = Lazy.force hresult in
  check Alcotest.bool "winner has a multi-plane pack" true
    (Plan.horizontal_pack_count r.Hgga.plan >= 1);
  check Alcotest.bool "plane order irrelevant" true (plane_orders_agree (Rng.create 11) r.Hgga.plan)

(* Random legal packings of the video frames: each frame's chain is cut
   into contiguous stage segments (convex vertical groups), and
   segments of distinct frames are packed together.  Packings whose
   condensed graph is cyclic or that violate a constraint are
   discarded. *)
let prop_packs_plane_order seed =
  let rng = Rng.create seed in
  let _, meta, exec = Lazy.force scaled in
  let segments =
    List.concat_map
      (fun f ->
        let rec cut s acc =
          if s >= spec.Video.stages then List.rev acc
          else
            let len = 1 + Rng.int rng (spec.Video.stages - s) in
            cut (s + len) (List.init len (fun i -> (f * spec.Video.stages) + s + i) :: acc)
        in
        cut 0 [])
      (List.init spec.Video.frames Fun.id)
  in
  let frame g = List.hd g / spec.Video.stages in
  let packs =
    List.fold_left
      (fun packs g ->
        match packs with
        | pack :: rest
          when List.length pack < 3
               && (not (List.exists (fun h -> frame h = frame g) pack))
               && Rng.int rng 3 > 0 ->
            (g :: pack) :: rest
        | _ -> [ g ] :: packs)
      [] (shuffle rng segments)
  in
  let plan = Plan.of_composed ~n packs in
  QCheck.assume
    (List.for_all (fun pack -> Plan.planes_independent ~exec pack) packs
    && Plan.horizontal_pack_count plan >= 1
    && Plan.validate ~device ~meta ~exec plan = []);
  plane_orders_agree rng plan

let suite =
  [
    qcheck "cplan signature canonical under scrambling" prop_signature_canonical;
    qcheck "singleton cplan signature = vertical plan signature"
      prop_singleton_sig_matches_vertical;
    qcheck "of_composed roundtrips canonical composition" prop_of_composed_roundtrip;
    Alcotest.test_case "dependent planes rejected" `Quick test_dependent_planes_rejected;
    Alcotest.test_case "independent planes accepted" `Quick test_independent_planes_accepted;
    Alcotest.test_case "packed frame chains legal" `Quick test_full_chains_pack_legal;
    Alcotest.test_case "horizontal beats vertical on video" `Quick
      test_horizontal_beats_vertical;
    Alcotest.test_case "measured agrees with projection" `Quick
      test_measured_agrees_with_projection;
    Alcotest.test_case "determinism matrix" `Slow test_determinism_matrix;
    Alcotest.test_case "vertical-only path unchanged" `Quick test_vertical_only_unchanged;
    Alcotest.test_case "champion composition canonical" `Quick
      test_mutation_walk_stays_canonical;
    Alcotest.test_case "horizontal snapshot roundtrip" `Quick test_snapshot_horizontal_roundtrip;
    Alcotest.test_case "vertical snapshot roundtrip" `Quick test_snapshot_vertical_roundtrip;
    Alcotest.test_case "checkpoint/resume identical" `Slow test_checkpoint_resume_identical;
    Alcotest.test_case "horizontal snapshot needs horizontal resume" `Quick
      test_resume_requires_horizontal;
    Alcotest.test_case "horizontal excludes portfolio" `Quick
      test_horizontal_excludes_portfolio;
    Alcotest.test_case "winner plane order irrelevant" `Quick test_winner_plane_order;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40 ~name:"random packs: plane order irrelevant" QCheck.small_int
         prop_packs_plane_order);
  ]
