(* Shared pieces of the benchmark: the per-decision record, the
   determinism digest, percentile helpers and the per-layer counter
   accumulator. *)

module Plan = Kf_fusion.Plan
module Hgga = Kf_search.Hgga

let now = Unix.gettimeofday
let device = Kf_gpu.Device.k20x

(* Where a run leaves its traces, caches and digests: inside the
   checkout, and listed in the repository's .gitignore. *)
let out_dir = ".bench_run"

let out_path name = Filename.concat out_dir name

type decision = {
  d_id : int;
  d_kind : string;  (** the decision's kind, for the printed breakdown *)
  d_slot : string;
      (** what was decided: the same slot must give the same digest in
          every run of one commit with one seed *)
  d_wall_s : float;
  d_digest : string;
  d_failure : string option;  (** errored, refused or a clock-dependent stop *)
  d_pair : (Kf_ir.Program.t * Plan.t) option;
      (** the program and chosen plan, replayed after the timed region *)
}

let plan_string plan = Format.asprintf "%a" Plan.pp plan

(* (plan signature, cost bits, evaluations, stream rung) *)
let digest ~plan ~cost ~evaluations ~rung =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%016Lx|%d|%s" (plan_string plan) (Int64.bits_of_float cost)
          evaluations rung))

(* Only the paper's own stop rule ends a fixed-work search; a budget,
   interrupt or fault stop means the work depended on something else. *)
let stop_failure (stop : Hgga.stop_reason) =
  match stop with
  | Hgga.Converged | Hgga.Generation_cap -> None
  | s -> Some ("search stopped on " ^ Hgga.stop_reason_name s)

let decision_counter = Atomic.make 0
let next_decision_id () = Atomic.fetch_and_add decision_counter 1

(* Percentile by linear interpolation between closest ranks. *)
let percentile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median values = percentile values 0.5

(* The highest whole percentile that leaves at least ten decisions
   beyond it (never below the median). *)
let tail_percentile n = max 50 (100 * (n - 10) / max 1 n)

let geomean values =
  match values with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun acc v -> acc +. log v) 0. values /. float_of_int (List.length values))

(* Per-layer counters: named sums, filled from the program's own
   counters after each traced decision. *)
module Counters = struct
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64
  let lock = Mutex.create ()

  let add name v =
    Mutex.lock lock;
    Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.);
    Mutex.unlock lock

  let get name = Option.value (Hashtbl.find_opt tbl name) ~default:0.
  let ratio num den = if den > 0. then num /. den else 0.

  (* Hit/miss pairs of one objective: group and plan caches and the
     structural-operator memos. *)
  let add_objective obj =
    let module O = Kf_search.Objective in
    let g = O.cache_stats obj and p = O.plan_cache_stats obj in
    add "objective.group_hits" (float_of_int g.O.hits);
    add "objective.group_misses" (float_of_int g.O.misses);
    add "objective.plan_hits" (float_of_int p.O.hits);
    add "objective.plan_misses" (float_of_int p.O.misses);
    add "objective.evals" (float_of_int (O.evaluations obj));
    add "objective.eval_s" (O.eval_time_s obj);
    add "objective.alloc_words" (O.alloc_per_eval obj *. float_of_int (O.evaluations obj));
    add "objective.portfolio_rows" (float_of_int (O.rows_evaluated obj));
    match O.struct_memos obj with
    | None -> ()
    | Some memos ->
        List.iter
          (fun (name, (hits, misses)) ->
            add ("struct_memo." ^ name ^ ".hits") (float_of_int hits);
            add ("struct_memo." ^ name ^ ".misses") (float_of_int misses))
          (Kf_search.Struct_memo.memo_stats memos)
end
