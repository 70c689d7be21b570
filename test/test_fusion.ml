(* Tests for Kf_fusion: fused-kernel construction, plans, fused programs,
   code generation. *)

open Kf_ir
module Fused = Kf_fusion.Fused
module Plan = Kf_fusion.Plan
module Fused_program = Kf_fusion.Fused_program
module Codegen = Kf_fusion.Codegen
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Motivating = Kf_workloads.Motivating

let check = Alcotest.check
let device = Kf_gpu.Device.k20x

let context () =
  let p = Motivating.program () in
  let meta = Metadata.build p in
  let dd = Datadep.build p in
  let exec = Exec_order.build dd in
  (p, meta, exec)

let build group =
  let _, meta, exec = context () in
  Fused.build ~device ~meta ~exec ~group

(* --- Fused --- *)

let test_fused_simple_vs_complex () =
  (* A+B: B reads the A array that kernel A writes -> complex with halo. *)
  let x = build Motivating.fusion_x in
  check Alcotest.bool "X is complex" true (x.Fused.kind = Fused.Complex);
  check Alcotest.int "X halo" 1 x.Fused.halo_layers;
  check Alcotest.bool "X has barrier" true
    (List.exists (fun s -> s.Fused.barrier_before) x.Fused.segments);
  (* C and D share nothing ordered; C+D is simple. *)
  let cd = build [ Motivating.kernel_c; Motivating.kernel_d ] in
  check Alcotest.bool "CD is simple" true (cd.Fused.kind = Fused.Simple);
  check Alcotest.int "CD no halo" 0 cd.Fused.halo_layers

let test_fused_segment_order () =
  let x = build [ Motivating.kernel_b; Motivating.kernel_a ] in
  check Alcotest.(list int) "A before B" [ Motivating.kernel_a; Motivating.kernel_b ]
    x.Fused.members

let test_fused_pivot () =
  let y = build Motivating.fusion_y in
  (* T, Q, V and R are shared between the members of Y. *)
  check Alcotest.(list int) "pivot" [ 6; 7; 8; 10 ] y.Fused.pivot

let test_fused_halo_producer () =
  let y = build Motivating.fusion_y in
  (* C produces R consumed by E with a radius-2 stencil: C is a halo
     producer and Y carries 2 halo layers. *)
  check Alcotest.int "halo layers" 2 y.Fused.halo_layers;
  let producer_of k =
    List.exists (fun s -> s.Fused.kernel = k && s.Fused.halo_producer) y.Fused.segments
  in
  check Alcotest.bool "C is producer" true (producer_of Motivating.kernel_c);
  check Alcotest.bool "E is not" false (producer_of Motivating.kernel_e)

let test_fused_resources_grow () =
  let p, _, _ = context () in
  let x = build Motivating.fusion_x in
  let max_member_regs =
    List.fold_left
      (fun acc k -> max acc (Program.kernel p k).Kernel.registers_per_thread)
      0 x.Fused.members
  in
  check Alcotest.bool "registers above members" true
    (x.Fused.registers_per_thread > max_member_regs);
  check Alcotest.bool "smem allocated" true (x.Fused.smem_bytes_per_block > 0)

let test_fused_singleton () =
  let f = build [ Motivating.kernel_a ] in
  check Alcotest.bool "singleton" true (Fused.is_singleton f);
  check Alcotest.bool "simple" true (f.Fused.kind = Fused.Simple);
  check Alcotest.int "no halo" 0 f.Fused.halo_layers

let test_fused_invalid () =
  let _, meta, exec = context () in
  Alcotest.check_raises "empty" (Invalid_argument "Fused.build: empty group") (fun () ->
      ignore (Fused.build ~device ~meta ~exec ~group:[]));
  Alcotest.check_raises "dup" (Invalid_argument "Fused.build: duplicate member") (fun () ->
      ignore (Fused.build ~device ~meta ~exec ~group:[ 1; 1 ]))

let test_fused_traffic_savings () =
  let p, _, _ = context () in
  let y = build Motivating.fusion_y in
  let members_bytes =
    List.fold_left (fun acc k -> acc +. Kf_graph.Traffic.kernel_bytes p k) 0. y.Fused.members
  in
  let fused_bytes = Fused.gmem_bytes p y in
  check Alcotest.bool "fusion reduces traffic" true (fused_bytes < members_bytes);
  check Alcotest.bool "fusion cannot eliminate everything" true (fused_bytes > 0.)

let test_fused_flops_include_halo () =
  let p, _, _ = context () in
  let y = build Motivating.fusion_y in
  let member_flops =
    List.fold_left (fun acc k -> acc +. Kernel.total_flops (Program.kernel p k) p.Program.grid)
      0. y.Fused.members
  in
  check Alcotest.bool "halo adds flops" true (Fused.total_flops p y > member_flops);
  check Alcotest.bool "halo extra positive" true (Fused.halo_extra_flops p y > 0.);
  (* A simple fusion has no halo replay. *)
  let cd = build [ Motivating.kernel_c; Motivating.kernel_d ] in
  check (Alcotest.float 1e-9) "no halo flops for simple" 0. (Fused.halo_extra_flops p cd)

(* --- Plan --- *)

let test_plan_construction () =
  let plan = Plan.of_groups ~n:5 [ [ 0; 1 ]; [ 2; 3; 4 ] ] in
  check Alcotest.int "groups" 2 (Plan.num_groups plan);
  check Alcotest.int "fused kernels" 2 (Plan.fused_kernel_count plan);
  check Alcotest.int "fused members" 5 (Plan.fused_member_count plan);
  check Alcotest.(list int) "group of 3" [ 2; 3; 4 ] (Plan.group_of plan 3)

let test_plan_identity () =
  let plan = Plan.identity 4 in
  check Alcotest.int "groups" 4 (Plan.num_groups plan);
  check Alcotest.int "no fusion" 0 (Plan.fused_kernel_count plan)

let test_plan_invalid () =
  Alcotest.check_raises "uncovered" (Invalid_argument "Plan.of_groups: kernel 2 unassigned")
    (fun () -> ignore (Plan.of_groups ~n:3 [ [ 0; 1 ] ]));
  Alcotest.check_raises "overlap" (Invalid_argument "Plan.of_groups: kernel 1 in two groups")
    (fun () -> ignore (Plan.of_groups ~n:3 [ [ 0; 1 ]; [ 1; 2 ] ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Plan.of_groups: kernel id 7 out of [0,3)") (fun () ->
      ignore (Plan.of_groups ~n:3 [ [ 0; 1 ]; [ 7; 2 ] ]))

let test_plan_equal () =
  let a = Plan.of_groups ~n:4 [ [ 1; 0 ]; [ 3; 2 ] ] in
  let b = Plan.of_groups ~n:4 [ [ 2; 3 ]; [ 0; 1 ] ] in
  check Alcotest.bool "order-insensitive equality" true (Plan.equal a b)

let test_plan_validate () =
  let _, meta, exec = context () in
  (* A then B is fine; A with C is not kin-connected (no shared arrays). *)
  let good = Plan.of_groups ~n:5 [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  check Alcotest.int "good plan" 0 (List.length (Plan.validate ~device ~meta ~exec good));
  let bad = Plan.of_groups ~n:5 [ [ 0; 2 ]; [ 1 ]; [ 3 ]; [ 4 ] ] in
  let violations = Plan.validate ~device ~meta ~exec bad in
  check Alcotest.bool "kinship violation reported" true
    (List.exists (function Plan.Not_kin_connected _ -> true | _ -> false) violations)

let test_plan_not_convex () =
  (* classes-like chain: need a program where {0,2} skips a middle kernel. *)
  let g = Grid.make ~nx:64 ~ny:32 ~nz:2 ~block_x:16 ~block_y:8 in
  let acc array mode pattern flops = { Access.array; mode; pattern; flops } in
  let arrays = List.mapi (fun id name -> Array_info.make ~id ~name ()) [ "a"; "b"; "c" ] in
  let kernels =
    [
      Kernel.make ~id:0 ~name:"k0"
        ~accesses:[ acc 0 Access.Write Stencil.point 1.; acc 2 Access.Read Stencil.point 1. ] ();
      Kernel.make ~id:1 ~name:"k1"
        ~accesses:[ acc 0 Access.Read Stencil.point 1.; acc 1 Access.Write Stencil.point 1. ] ();
      Kernel.make ~id:2 ~name:"k2"
        ~accesses:[ acc 1 Access.Read Stencil.point 1.; acc 2 Access.Read Stencil.point 1. ] ();
    ]
  in
  let p = Program.create ~name:"chain" ~grid:g ~arrays ~kernels in
  let meta = Metadata.build p in
  let exec = Exec_order.build (Datadep.build p) in
  let plan = Plan.of_groups ~n:3 [ [ 0; 2 ]; [ 1 ] ] in
  let violations = Plan.validate ~meta ~exec plan in
  check Alcotest.bool "convexity violation" true
    (List.exists (function Plan.Not_convex _ -> true | _ -> false) violations)

let test_plan_not_schedulable () =
  (* a -> b and c -> d with groups {a,d} {b,c}: each convex, but the
     condensation is cyclic. *)
  let g = Grid.make ~nx:64 ~ny:32 ~nz:2 ~block_x:16 ~block_y:8 in
  let acc array mode pattern flops = { Access.array; mode; pattern; flops } in
  let arrays = List.mapi (fun id name -> Array_info.make ~id ~name ()) [ "x"; "y"; "s"; "t" ] in
  let kernels =
    [
      Kernel.make ~id:0 ~name:"a"
        ~accesses:[ acc 0 Access.Write Stencil.point 1.; acc 2 Access.Read Stencil.point 1. ] ();
      Kernel.make ~id:1 ~name:"b"
        ~accesses:[ acc 0 Access.Read Stencil.point 1.; acc 3 Access.Read Stencil.point 1. ] ();
      Kernel.make ~id:2 ~name:"c"
        ~accesses:[ acc 1 Access.Write Stencil.point 1.; acc 3 Access.Read Stencil.point 1. ] ();
      Kernel.make ~id:3 ~name:"d"
        ~accesses:[ acc 1 Access.Read Stencil.point 1.; acc 2 Access.Read Stencil.point 1. ] ();
    ]
  in
  let p = Program.create ~name:"cross" ~grid:g ~arrays ~kernels in
  let meta = Metadata.build p in
  let exec = Exec_order.build (Datadep.build p) in
  let plan = Plan.of_groups ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  let violations = Plan.validate ~meta ~exec plan in
  check Alcotest.bool "cyclic schedule detected" true
    (List.exists (( = ) Plan.Not_schedulable) violations);
  Alcotest.check_raises "fused program refuses"
    (Invalid_argument "Fused_program.build: plan is not convex (condensed graph is cyclic)")
    (fun () -> ignore (Fused_program.build ~device ~meta ~exec plan))

(* --- Fused_program --- *)

let test_fused_program_build () =
  let p, meta, exec = context () in
  let plan = Plan.of_groups ~n:5 [ Motivating.fusion_x; Motivating.fusion_y ] in
  let fp = Fused_program.build ~device ~meta ~exec plan in
  check Alcotest.int "two units" 2 (List.length fp.Fused_program.units);
  check Alcotest.int "two fused kernels" 2 (List.length (Fused_program.fused_kernels fp));
  (* All kernels covered exactly once. *)
  let members = List.concat_map Fused_program.unit_members fp.Fused_program.units in
  check Alcotest.(list int) "coverage" [ 0; 1; 2; 3; 4 ] (List.sort compare members);
  ignore p

let test_fused_program_order () =
  let _, meta, exec = context () in
  let plan = Plan.of_groups ~n:5 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
  let fp = Fused_program.build ~device ~meta ~exec plan in
  (* With singletons the unit order must respect A before B. *)
  let order = List.concat_map Fused_program.unit_members fp.Fused_program.units in
  let pos k =
    let rec go i = function [] -> -1 | x :: r -> if x = k then i else go (i + 1) r in
    go 0 order
  in
  check Alcotest.bool "A before B" true (pos 0 < pos 1)

(* --- Codegen --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_codegen_kernel () =
  let p, _, _ = context () in
  let x = build Motivating.fusion_x in
  let src = Codegen.emit_kernel p x in
  check Alcotest.bool "global decl" true (contains src "__global__");
  check Alcotest.bool "shared staging" true (contains src "__shared__");
  check Alcotest.bool "barrier emitted" true (contains src "__syncthreads()");
  check Alcotest.bool "halo load" true (contains src "load_halo_ring");
  check Alcotest.bool "segments labeled" true (contains src "segment from Kern_A")

let test_codegen_signature () =
  let p, _, _ = context () in
  let x = build Motivating.fusion_x in
  let s = Codegen.kernel_signature p x in
  check Alcotest.bool "names all arrays" true
    (contains s "double *A" && contains s "double *B" && contains s "double *Mx")

let test_codegen_host () =
  let _, meta, exec = context () in
  let plan = Plan.of_groups ~n:5 [ Motivating.fusion_x; Motivating.fusion_y ] in
  let p = Motivating.program () in
  ignore p;
  let fp = Fused_program.build ~device ~meta ~exec plan in
  let host = Codegen.emit_host_sequence fp in
  check Alcotest.bool "two launches" true
    (List.length (String.split_on_char '\n' (String.trim host)) = 2);
  let full = Codegen.emit_program fp in
  check Alcotest.bool "full program emits kernels" true (contains full "__global__")

(* Arena-encoded signatures must be bit-identical to the allocating
   reference encoders for arbitrary (even messy: unsorted members,
   shuffled groups) partitions — the reference encoders define what a
   signature is, and the objective's caches, the structural memos and the
   search's dedup tables all key by these arrays, so any drift would
   split caches that must agree.  One Sigbuf is reused
   across all cases, exercising arena reuse and growth. *)
(* The one plan encoder against the allocating references: for a plan of
   single-plane packs, [plan_signature] of its groups; for any packing,
   [canonical_comps] joined with [-3] between planes and [-1] between
   packs.  Random partitions of up to 24 kernels, shuffled members, and
   random packings of the groups into packs of up to three planes. *)
let prop_sigbuf_roundtrip =
  let packing_gen =
    QCheck.Gen.(
      int_range 1 24 >>= fun n ->
      int_range 1 1000 >>= fun seed ->
      let rng = Kf_util.Rng.create seed in
      let perm = Array.init n (fun i -> i) in
      Kf_util.Rng.shuffle rng perm;
      let groups = ref [] and i = ref 0 in
      while !i < n do
        let len = min (n - !i) (1 + Kf_util.Rng.int rng 4) in
        groups := Array.to_list (Array.sub perm !i len) :: !groups;
        i := !i + len
      done;
      let packs = ref [] in
      List.iter
        (fun g ->
          match !packs with
          | pack :: rest when List.length pack < 3 && Kf_util.Rng.int rng 2 = 0 ->
              packs := (g :: pack) :: rest
          | _ -> packs := [ g ] :: !packs)
        !groups;
      return !packs)
  in
  let reference comps =
    let join sep parts = List.concat (List.mapi (fun i p -> if i > 0 then sep :: p else p) parts) in
    Array.of_list (join (-1) (List.map (join (-3)) (Plan.canonical_comps comps)))
  in
  let sb = Plan.Sigbuf.create () in
  QCheck.Test.make ~count:300 ~name:"Sigbuf encodings match reference signature encoders"
    (QCheck.make packing_gen) (fun comps ->
      let groups = List.concat comps in
      let encodes packs expected =
        Plan.Sigbuf.encode_plan sb packs;
        Plan.Sigbuf.extract sb = expected
        && Plan.Sigbuf.hash sb = Plan.signature_hash expected
        && Plan.Sigbuf.canonical sb = Plan.canonical_comps packs
      in
      let ok_plans =
        encodes (List.map (fun g -> [ g ]) groups) (Plan.plan_signature groups)
        && encodes comps (reference comps)
      in
      let ok_groups =
        List.for_all
          (fun g ->
            Plan.Sigbuf.encode_group sb g;
            Plan.Sigbuf.extract sb = Plan.group_signature g
            && Plan.Sigbuf.hash sb = Plan.group_hash g)
          groups
      in
      let ok_packs =
        List.for_all
          (function
            | [ _ ] -> true
            | planes ->
                Plan.Sigbuf.encode_pack sb planes;
                Plan.Sigbuf.extract sb = reference [ planes ])
          comps
      in
      ok_plans && ok_groups && ok_packs)

let suite =
  [
    Alcotest.test_case "fused simple vs complex" `Quick test_fused_simple_vs_complex;
    Alcotest.test_case "fused segment order" `Quick test_fused_segment_order;
    Alcotest.test_case "fused pivot" `Quick test_fused_pivot;
    Alcotest.test_case "fused halo producer" `Quick test_fused_halo_producer;
    Alcotest.test_case "fused resources grow" `Quick test_fused_resources_grow;
    Alcotest.test_case "fused singleton" `Quick test_fused_singleton;
    Alcotest.test_case "fused invalid" `Quick test_fused_invalid;
    Alcotest.test_case "fused traffic savings" `Quick test_fused_traffic_savings;
    Alcotest.test_case "fused halo flops" `Quick test_fused_flops_include_halo;
    Alcotest.test_case "plan construction" `Quick test_plan_construction;
    Alcotest.test_case "plan identity" `Quick test_plan_identity;
    Alcotest.test_case "plan invalid" `Quick test_plan_invalid;
    Alcotest.test_case "plan equality" `Quick test_plan_equal;
    Alcotest.test_case "plan validate" `Quick test_plan_validate;
    Alcotest.test_case "plan not convex" `Quick test_plan_not_convex;
    Alcotest.test_case "plan not schedulable" `Quick test_plan_not_schedulable;
    Alcotest.test_case "fused program build" `Quick test_fused_program_build;
    Alcotest.test_case "fused program order" `Quick test_fused_program_order;
    Alcotest.test_case "codegen kernel" `Quick test_codegen_kernel;
    Alcotest.test_case "codegen signature" `Quick test_codegen_signature;
    Alcotest.test_case "codegen host" `Quick test_codegen_host;
    QCheck_alcotest.to_alcotest prop_sigbuf_roundtrip;
  ]
