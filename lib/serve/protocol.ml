(* Wire protocol of the serve daemon: line-delimited JSON over a Unix
   socket.  One request line in; a stream of event lines out, ending in
   exactly one "result" or "error" event per request.  Parsing is total:
   any malformed input maps to [Bad_request], never an escaped
   exception. *)

module Json = Kf_obs.Json
module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Objective = Kf_search.Objective
module Hgga = Kf_search.Hgga
module Stream = Kf_search.Stream
module Suite = Kf_workloads.Suite

exception Bad_request of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_request s)) fmt

type options = {
  generations : int option;
  population : int option;
  seed : int option;
  domains : int option;
  max_evaluations : int option;
  max_wall_s : float option;
  deadline_s : float option;
  slo_ms : float option;
  apply : bool;
  progress : bool;
  inject_rate : float option;
  inject_seed : int option;
}

let default_options =
  {
    generations = None;
    population = None;
    seed = None;
    domains = None;
    max_evaluations = None;
    max_wall_s = None;
    deadline_s = None;
    slo_ms = None;
    apply = false;
    progress = false;
    inject_rate = None;
    inject_seed = None;
  }

type request = {
  id : string;
  session : string option;  (** streaming session name; [None] = one-shot *)
  workload : string option;  (** named / suite: spec *)
  program_text : string option;  (** inline .kf source *)
  device : string;
  model : string;
  options : options;
}

(* --- request parsing --- *)

let as_string name = function
  | Json.Str s -> s
  | _ -> bad "field %S must be a string" name

let opt_field obj name f = Option.map (f name) (Json.member name obj)

let int_field obj name =
  opt_field obj name (fun name v ->
      match Json.to_int_opt v with
      | Some i -> i
      | None -> bad "field %S must be an integer" name)

let float_field obj name =
  opt_field obj name (fun name v ->
      match Json.to_float_opt v with
      | Some f when Float.is_finite f -> f
      | _ -> bad "field %S must be a finite number" name)

let bool_field obj name ~default =
  match Json.member name obj with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name

let positive name = function
  | Some v when v <= 0 -> bad "field %S must be positive" name
  | v -> v

let positive_f name = function
  | Some v when v <= 0. -> bad "field %S must be positive" name
  | v -> v

let parse_options j =
  match j with
  | None -> default_options
  | Some (Json.Obj _ as obj) ->
      let inject_rate =
        match float_field obj "inject_rate" with
        | Some r when r < 0. || r > 1. -> bad "field \"inject_rate\" must be in [0,1]"
        | r -> r
      in
      {
        generations = positive "generations" (int_field obj "generations");
        population = positive "population" (int_field obj "population");
        seed = int_field obj "seed";
        domains = positive "domains" (int_field obj "domains");
        max_evaluations = positive "max_evaluations" (int_field obj "max_evaluations");
        max_wall_s = positive_f "max_wall_s" (float_field obj "max_wall_s");
        deadline_s = positive_f "deadline_s" (float_field obj "deadline_s");
        slo_ms = positive_f "slo_ms" (float_field obj "slo_ms");
        apply = bool_field obj "apply" ~default:false;
        progress = bool_field obj "progress" ~default:false;
        inject_rate;
        inject_seed = int_field obj "inject_seed";
      }
  | Some _ -> bad "field \"options\" must be an object"

let parse_request line =
  let j =
    match Json.of_string line with
    | j -> j
    | exception Json.Malformed msg -> bad "invalid JSON: %s" msg
  in
  (match j with Json.Obj _ -> () | _ -> bad "request must be a JSON object");
  let str_field name = Option.map (as_string name) (Json.member name j) in
  let workload = str_field "workload" in
  let program_text = str_field "program" in
  (match (workload, program_text) with
  | None, None -> bad "request needs a \"workload\" name or an inline \"program\""
  | Some _, Some _ -> bad "\"workload\" and \"program\" are mutually exclusive"
  | _ -> ());
  let session =
    match str_field "session" with
    | Some "" -> bad "field \"session\" must be non-empty"
    | s -> s
  in
  let options = parse_options (Json.member "options" j) in
  (* A streamed decision answers the current version's plan; building
     and measuring the fused program per edit is a different (offline)
     job, and per-search budget knobs would break the warm accounting. *)
  if session <> None then begin
    if options.apply then bad "\"apply\" is not available on streaming sessions";
    if options.max_evaluations <> None || options.max_wall_s <> None then
      bad "streaming sessions use \"slo_ms\", not search budgets"
  end;
  {
    id = Option.value (str_field "id") ~default:"";
    session;
    workload;
    program_text;
    device = Option.value (str_field "device") ~default:"k20x";
    model = Option.value (str_field "model") ~default:"proposed";
    options;
  }

(* --- resolution (name -> program / device / model) --- *)

let device_of_name = function
  | "k20x" -> Device.k20x
  | "k40" -> Device.k40
  | "gtx750ti" | "maxwell" -> Device.gtx750ti
  | other -> bad "unknown device %S (k20x, k40, gtx750ti)" other

let model_of_name = function
  | "proposed" -> Objective.Proposed
  | "roofline" -> Objective.Roofline
  | "simple" -> Objective.Simple
  | "mwp" -> Objective.Mwp
  | other -> bad "unknown model %S (proposed, roofline, simple, mwp)" other

let has_prefix s p = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let suite_config spec =
  List.fold_left
    (fun (c : Suite.config) kv ->
      let int_v name v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> bad "suite attribute %s=%S is not an integer" name v
      in
      match String.split_on_char '=' kv with
      | [ "kernels"; v ] -> { c with Suite.kernels = int_v "kernels" v }
      | [ "arrays"; v ] -> { c with Suite.arrays = int_v "arrays" v }
      | [ "copies"; v ] -> { c with Suite.data_copies = int_v "copies" v }
      | [ "sharing"; v ] -> { c with Suite.sharing_set = int_v "sharing" v }
      | [ "load"; v ] -> { c with Suite.thread_load = int_v "load" v }
      | [ "kinship"; v ] -> { c with Suite.kinship = int_v "kinship" v }
      | [ "seed"; v ] -> { c with Suite.seed = int_v "seed" v }
      | _ -> bad "unknown suite attribute %S" kv)
    Suite.default (String.split_on_char ',' spec)

(* The daemon resolves only named workloads, suite: specs and inline
   program text — never client-supplied file paths. *)
let resolve_program req =
  match (req.workload, req.program_text) with
  | Some name, _ -> begin
      match name with
      | "motivating" -> Kf_workloads.Motivating.program ()
      | "cloverleaf" -> Kf_workloads.Cloverleaf.program ()
      | "tealeaf" -> Kf_workloads.Tealeaf.program ()
      | "scale-les" -> Kf_workloads.Scale_les.program ()
      | "scale-les-rk" -> Kf_workloads.Scale_les.rk_core ()
      | "homme" -> Kf_workloads.Homme.program ()
      | s when has_prefix s "suite:" -> begin
          match Suite.generate (suite_config (String.sub s 6 (String.length s - 6))) with
          | p -> p
          | exception Invalid_argument msg -> bad "bad suite spec: %s" msg
        end
      | other -> bad "unknown workload %S" other
    end
  | None, Some text -> begin
      match Kf_ir.Program_io.parse text with
      | p -> p
      | exception Kf_ir.Program_io.Parse_error (line, msg) ->
          bad "program parse error at line %d: %s" line msg
    end
  | None, None -> bad "request needs a \"workload\" name or an inline \"program\""

let resolve req = (resolve_program req, device_of_name req.device, model_of_name req.model)

(* --- error taxonomy --- *)

type code = Malformed | Overload | Deadline | Shutdown | Internal

let code_name = function
  | Malformed -> "malformed"
  | Overload -> "overload"
  | Deadline -> "deadline"
  | Shutdown -> "shutdown"
  | Internal -> "internal"

(* Overload and drain rejections — and a missed deadline — are about the
   daemon's state, not the request: the same request can succeed later. *)
let retriable = function
  | Overload | Shutdown | Deadline -> true
  | Malformed | Internal -> false

(* --- event construction --- *)

let event kind id rest = Json.Obj (("event", Json.Str kind) :: ("id", Json.Str id) :: rest)

let admitted ~id ~queue_depth = event "admitted" id [ ("queue_depth", Json.Int queue_depth) ]
let started ~id = event "started" id []

let progress ~id (p : Hgga.progress) =
  event "progress" id
    [
      ("generation", Json.Int p.Hgga.p_generation);
      ("best_cost", Json.Float p.Hgga.p_best_cost);
      ("stall", Json.Int p.Hgga.p_stall);
      ("evaluations", Json.Int p.Hgga.p_evaluations);
      ("wall_s", Json.Float p.Hgga.p_wall_s);
    ]

let error ~id ~code ~message =
  event "error" id
    [
      ("code", Json.Str (code_name code));
      ("retriable", Json.Bool (retriable code));
      ("message", Json.Str message);
    ]

let groups_json groups =
  Json.Arr (List.map (fun g -> Json.Arr (List.map (fun k -> Json.Int k) g)) groups)

let result ~id ~warm ~cache:(c : Objective.cache_stats) ?outcome (r : Hgga.result) =
  let s = r.Hgga.stats in
  let probes = c.Objective.hits + c.Objective.misses in
  let hit_rate =
    if probes = 0 then 0. else float_of_int c.Objective.hits /. float_of_int probes
  in
  let apply_fields =
    match outcome with
    | None -> []
    | Some (o : Kfuse.Pipeline.outcome) ->
        [
          ("original_ms", Json.Float (o.Kfuse.Pipeline.context.Kfuse.Pipeline.original_runtime *. 1e3));
          ("fused_ms", Json.Float (o.Kfuse.Pipeline.fused_runtime *. 1e3));
          ("speedup", Json.Float o.Kfuse.Pipeline.speedup);
        ]
  in
  event "result" id
    ([
       ("stop", Json.Str (Hgga.stop_reason_name s.Hgga.stop));
       ("warm", Json.Bool warm);
       ("groups", groups_json r.Hgga.groups);
       ("cost", Json.Float r.Hgga.cost);
       ("generations", Json.Int s.Hgga.generations);
       ("evaluations", Json.Int s.Hgga.evaluations);
       ("wall_s", Json.Float s.Hgga.wall_time_s);
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Int c.Objective.hits);
             ("misses", Json.Int c.Objective.misses);
             ("hit_rate", Json.Float hit_rate);
           ] );
     ]
    @ apply_fields)

(* A result served entirely from the warm store: no search ran, so there
   are no stats to report — the ["cached"] marker tells the client the
   numbers describe the original (cached) search's answer, not work done
   for this request. *)
let cached_result ~id ~groups ~cost =
  event "result" id
    [
      ("stop", Json.Str "cached");
      ("warm", Json.Bool true);
      ("cached", Json.Bool true);
      ("groups", groups_json groups);
      ("cost", Json.Float cost);
      ("generations", Json.Int 0);
      ("evaluations", Json.Int 0);
      ("wall_s", Json.Float 0.);
    ]

let stream_result ~id ~session (d : Stream.decision) =
  event "result" id
    [
      ("session", Json.Str session);
      ("version", Json.Int d.Stream.d_version);
      ("rung", Json.Str (Stream.rung_name d.Stream.d_rung));
      ("stop", Json.Str (Hgga.stop_reason_name d.Stream.d_stop));
      ("slo_tripped", Json.Bool d.Stream.d_slo_tripped);
      ("changed", Json.Int d.Stream.d_changed);
      ("reused_groups", Json.Int d.Stream.d_reused_groups);
      ("groups", groups_json d.Stream.d_groups);
      ("cost", Json.Float d.Stream.d_cost);
      ("evaluations", Json.Int d.Stream.d_evaluations);
      ("wall_s", Json.Float d.Stream.d_wall_s);
      ("total_evaluations", Json.Int d.Stream.d_total_evaluations);
      ("total_wall_s", Json.Float d.Stream.d_total_wall_s);
    ]
