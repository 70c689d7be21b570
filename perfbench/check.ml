(* Output correctness, checked after the timed region: every chosen plan
   must pass [Plan.validate] on the program it was chosen for, and its
   fused program must compute the same values as the original under the
   [Kf_exec.Semantics] oracle, replayed on a scaled-down grid (fusion
   legality and semantics do not depend on the grid size, paper §II-C).
   Each distinct (program, plan) pair is checked once per process, the
   pairs spread over two domains.  The
   simulator-measured speedup of the plan comes out of the same replay. *)

module Program = Kf_ir.Program
module Plan = Kf_fusion.Plan
module Pipeline = Kfuse.Pipeline

type verdict = {
  failure : string option;  (** [None] when valid and equivalent *)
  speedup : float;  (** simulator-measured original / fused runtime *)
  oracle_s : float;  (** wall time of the semantics replay *)
}

let memo : (string, verdict) Hashtbl.t = Hashtbl.create 64

(* Two blocks each way and two levels: every block still has neighbours
   across a periodic block boundary, and the replay stays well under a
   second even for 40-kernel programs. *)
let small_grid (p : Program.t) =
  let g = p.Program.grid in
  Kf_ir.Grid.make
    ~nx:(min g.Kf_ir.Grid.nx (2 * g.Kf_ir.Grid.block_x))
    ~ny:(min g.Kf_ir.Grid.ny (2 * g.Kf_ir.Grid.block_y))
    ~nz:(min g.Kf_ir.Grid.nz 2) ~block_x:g.Kf_ir.Grid.block_x ~block_y:g.Kf_ir.Grid.block_y

let fused_program (p : Program.t) plan =
  let meta = Kf_ir.Metadata.build p in
  let exec = Kf_graph.Exec_order.build (Kf_graph.Datadep.build p) in
  Kf_fusion.Fused_program.build ~device:Common.device ~meta ~exec plan

let run (p : Program.t) plan =
  let device = Common.device in
  let ctx = Pipeline.prepare ~device p in
  match Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec plan with
  | _ :: _ as violations ->
      {
        failure =
          Some
            (Format.asprintf "plan fails validation: %a" Plan.pp_violation (List.hd violations));
        speedup = 0.;
        oracle_s = 0.;
      }
  | [] ->
      let fused =
        Kf_fusion.Fused_program.build ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec plan
      in
      let fused_runtime =
        List.fold_left
          (fun acc (_, r) -> acc +. r.Kf_sim.Measure.runtime_s)
          0.
          (Kf_sim.Measure.fused_program_results ~device fused)
      in
      let speedup =
        Pipeline.safe_speedup ~original:ctx.Pipeline.original_runtime ~fused:fused_runtime
      in
      let t0 = Common.now () in
      let small = fused_program (Program.with_grid p (small_grid p)) plan in
      let v = Kf_exec.Semantics.check ~device small in
      let oracle_s = Common.now () -. t0 in
      let failure =
        if v.Kf_exec.Semantics.equivalent then None
        else
          Some
            (Printf.sprintf "semantics mismatch at %d sites (max |diff| %g)"
               v.Kf_exec.Semantics.mismatched_sites v.Kf_exec.Semantics.max_abs_diff)
      in
      { failure; speedup; oracle_s }

let key (p : Program.t) plan =
  Digest.to_hex (Digest.string (Kf_ir.Program_io.print p)) ^ Common.plan_string plan

let run_safe (p, plan) =
  try run p plan
  with e -> { failure = Some ("replay raised " ^ Printexc.to_string e); speedup = 0.; oracle_s = 0. }

(* Replays every pair not seen yet, on two domains. *)
let replay_all pairs =
  let todo = Hashtbl.create 64 in
  List.iter
    (fun (p, plan) ->
      let k = key p plan in
      if not (Hashtbl.mem memo k) then Hashtbl.replace todo k (p, plan))
    pairs;
  let jobs = Array.of_seq (Hashtbl.to_seq todo) in
  let results = Array.make (Array.length jobs) None in
  let work first =
    Array.iteri (fun i (_, pair) -> if i mod 2 = first then results.(i) <- Some (run_safe pair)) jobs
  in
  let other = Domain.spawn (fun () -> work 1) in
  work 0;
  Domain.join other;
  Array.iteri (fun i (k, _) -> Hashtbl.replace memo k (Option.get results.(i))) jobs

let pair p plan = Hashtbl.find memo (key p plan)

(* Oracle time per distinct pair replayed so far. *)
let oracle_s_per_pair () =
  let n = Hashtbl.length memo in
  if n = 0 then 0. else Hashtbl.fold (fun _ v acc -> acc +. v.oracle_s) memo 0. /. float_of_int n
