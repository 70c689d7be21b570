(* The benchmark's own layer spans, recorded around its calls into the
   program's public functions.  They go to the program's trace sink
   ([Kf_obs.Trace], category "perfbench"), next to the program's own
   spans; each carries its decision's id, its own id and its parent's, so
   self times and coverage are computed from the one trace file. *)

module Trace = Kf_obs.Trace
module Json = Kf_obs.Json

let cat = "perfbench"
let ids = Atomic.make 0

(* [f] receives the new span's id, to hand on as its children's parent
   (-1 when tracing is off). *)
let within ~decision ?(parent = -1) name f =
  if not (Trace.enabled ()) then f (-1)
  else begin
    let id = Atomic.fetch_and_add ids 1 in
    Trace.span ~cat
      ~args:[ ("decision", Json.Int decision); ("id", Json.Int id); ("parent", Json.Int parent) ]
      name
      (fun () -> f id)
  end

type span = {
  id : int;
  decision : int;
  parent : int;  (** -1 for a decision's root span *)
  name : string;
  t0 : float;  (** seconds from the trace's start *)
  t1 : float;
}

type file = {
  spans : span list;  (** the benchmark's spans *)
  program : (string * float) list;  (** the program's span seconds, summed by name *)
}

let read path =
  let spans = ref [] and program = Hashtbl.create 16 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let ev = Json.of_string (input_line ic) in
          let field name conv = Option.bind (Json.member name ev) conv in
          let arg name = Option.bind (field "args" (Json.member name)) Json.to_int_opt in
          match (field "name" Json.to_string_opt, field "ts" Json.to_float_opt, field "dur" Json.to_float_opt) with
          | Some name, Some ts, Some dur when field "cat" Json.to_string_opt = Some cat -> (
              match (arg "id", arg "decision", arg "parent") with
              | Some id, Some decision, Some parent ->
                  let t0 = ts /. 1e6 in
                  spans := { id; decision; parent; name; t0; t1 = t0 +. (dur /. 1e6) } :: !spans
              | _ -> ())
          | Some name, Some _, Some dur ->
              Hashtbl.replace program name
                ((dur /. 1e6) +. Option.value (Hashtbl.find_opt program name) ~default:0.)
          | _ -> ()
        done
      with End_of_file -> ());
  { spans = List.rev !spans; program = Hashtbl.fold (fun k v acc -> (k, v) :: acc) program [] }

let duration s = s.t1 -. s.t0

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., lo) clipped
  in
  total

let children spans =
  let by_parent = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add by_parent s.parent s) spans;
  by_parent

(* Sum of self times (duration minus the part the span's children
   cover) per span name. *)
let self_by_name spans =
  let kids = children spans and tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let inner = List.map (fun k -> (k.t0, k.t1)) (Hashtbl.find_all kids s.id) in
      let self = duration s -. covered ~lo:s.t0 ~hi:s.t1 inner in
      Hashtbl.replace tbl s.name (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.))
    spans;
  tbl

let total_by_name spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. spans

(* For each decision root (a span named "decision"), the share of its
   wall time covered by the innermost layer spans of that decision (the
   spans with no children); the minimum over decisions. *)
let min_coverage spans =
  let kids = children spans in
  let leaves = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> -1 && not (Hashtbl.mem kids s.id) then Hashtbl.add leaves s.decision (s.t0, s.t1))
    spans;
  List.fold_left
    (fun acc r ->
      let d = duration r in
      if r.parent <> -1 || r.name <> "decision" || d <= 0. then acc
      else Float.min acc (covered ~lo:r.t0 ~hi:r.t1 (Hashtbl.find_all leaves r.decision) /. d))
    1. spans
