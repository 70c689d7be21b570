(* GA checkpoint and serve-cache serialization.

   Both documents are JSON, read through the one codec ({!Kf_obs.Json})
   and written by the streaming Buffer helpers below — never through a
   [Json.t] tree, because the daemon's cache document grows to megabytes
   and is persisted every few seconds.  Costs are not stored in
   checkpoints: they are recomputed on resume — evaluation is pure, so
   recomputation is exact.  Floats that must round-trip exactly are
   "%h" hexadecimal strings; RNG states are decimal int64 strings (an
   int64 does not fit a JSON int on the OCaml side).  One format, 8, is
   read and written; a document carrying any other number is rejected
   and the run that wrote it must be repeated. *)

module Json = Kf_obs.Json

let format_version = 8

type packs = int list list list

type island = { rng_state : int64; population : packs list }

type t = {
  population_size : int;
  seed : int;
  n : int;
  generation : int;
  stall : int;
  evaluations : int;
  wall_time_s : float;
  faults : Objective.fault_stats;
  migration_cursor : int;
  group_cache : Objective.cache_stats;
  plan_cache : Objective.cache_stats;
  horizontal : bool;
  best : packs;
  history : (int * float) list;  (** oldest first *)
  islands : island list;
}

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* --- writing: streaming helpers shared by both documents --- *)

let add_list b add xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    xs;
  Buffer.add_char b ']'

let add_int b k = Buffer.add_string b (string_of_int k)
let add_groups b groups = add_list b (fun b g -> add_list b add_int g) groups
let add_packs b packs = add_list b add_groups packs

(* %h is a hexadecimal float literal: an exact round trip, and the
   infinity of an infeasible verdict renders as "infinity", which
   float_of_string accepts back. *)
let add_hex b f = Printf.bprintf b "\"%h\"" f
let add_str b s = Json.buffer b (Json.Str s)

(* [signature, feasible 0/1, cost, orig_sum] *)
let add_verdict b (sg, (v : Objective.verdict)) =
  Buffer.add_string b "[[";
  Array.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char b ',';
      add_int b k)
    sg;
  Printf.bprintf b "],%d," (if v.Objective.feasible then 1 else 0);
  add_hex b v.Objective.cost;
  Buffer.add_char b ',';
  add_hex b v.Objective.orig_sum;
  Buffer.add_char b ']'

let add_header b kind =
  Printf.bprintf b "{\n  \"format\": %d,\n  \"kind\": \"%s\",\n" format_version kind

let kind = "checkpoint"

let render t =
  let b = Buffer.create 4096 in
  add_header b kind;
  Printf.bprintf b "  \"population_size\": %d,\n" t.population_size;
  Printf.bprintf b "  \"seed\": %d,\n" t.seed;
  Printf.bprintf b "  \"n\": %d,\n" t.n;
  Printf.bprintf b "  \"generation\": %d,\n" t.generation;
  Printf.bprintf b "  \"stall\": %d,\n" t.stall;
  Printf.bprintf b "  \"evaluations\": %d,\n" t.evaluations;
  Buffer.add_string b "  \"wall_time_s\": ";
  add_hex b t.wall_time_s;
  let f = t.faults in
  Buffer.add_string b ",\n  \"faults\": ";
  add_list b add_int
    Objective.[ f.injected; f.trapped; f.corrupted; f.retries; f.recovered; f.quarantined ];
  Printf.bprintf b ",\n  \"migration_cursor\": %d,\n" t.migration_cursor;
  let add_cache name (c : Objective.cache_stats) =
    Printf.bprintf b "  \"%s\": [%d,%d,%d],\n" name c.hits c.misses c.evictions
  in
  add_cache "group_cache" t.group_cache;
  add_cache "plan_cache" t.plan_cache;
  Printf.bprintf b "  \"horizontal\": %b,\n  \"best\": " t.horizontal;
  add_packs b t.best;
  Buffer.add_string b ",\n  \"history\": ";
  add_list b
    (fun b (gen, cost) ->
      Printf.bprintf b "[%d," gen;
      add_hex b cost;
      Buffer.add_char b ']')
    t.history;
  Buffer.add_string b ",\n  \"islands\": [";
  List.iteri
    (fun i isl ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    {\"rng_state\": \"%Ld\", \"population\": [" isl.rng_state;
      List.iteri
        (fun j packs ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b "\n      ";
          add_packs b packs)
        isl.population;
      Buffer.add_string b "\n    ]}")
    t.islands;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Atomic write: render first, write to a sibling temp file, and only
   rename over the target after an error-checked [close_out] confirms the
   bytes were flushed.  A checkpoint interrupted mid-write — or one whose
   flush fails on a full disk — must never replace a good previous
   snapshot with a truncated one, so on any failure the temp file is
   removed and the target left untouched. *)
let atomic_write path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match
     output_string oc contents;
     close_out oc
   with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save path t = atomic_write path (render t)

(* --- reading: typed accessors over the shared codec's tree --- *)

let field j name =
  match Json.member name j with Some v -> v | None -> malformed "missing field %S" name

let as_int name = function Json.Int v -> v | _ -> malformed "field %S: expected int" name

let as_nat name j =
  let v = as_int name j in
  if v < 0 then malformed "field %S must be non-negative" name;
  v

let as_str name = function Json.Str v -> v | _ -> malformed "field %S: expected string" name
let as_list name = function Json.Arr v -> v | _ -> malformed "field %S: expected array" name
let as_bool name = function Json.Bool v -> v | _ -> malformed "field %S: expected bool" name

let as_hex name j =
  let s = as_str name j in
  match float_of_string_opt s with
  | Some v when not (Float.is_nan v) -> v
  | Some _ -> malformed "field %S must not be NaN" name
  | None -> malformed "bad %s %S" name s

let as_groups name j = List.map (fun g -> List.map (as_int name) (as_list name g)) (as_list name j)
let as_packs name j = List.map (as_groups name) (as_list name j)

let as_nats name j = List.map (as_nat name) (as_list name j)

let as_verdict j =
  match as_list "verdicts" j with
  | [ sg; feasible; cost; orig_sum ] ->
      let signature = Array.of_list (List.map (as_int "signature") (as_list "signature" sg)) in
      if Array.length signature = 0 then malformed "verdict signatures must be non-empty";
      let feasible =
        match as_int "feasible" feasible with
        | 0 -> false
        | 1 -> true
        | _ -> malformed "verdict feasible flag must be 0 or 1"
      in
      ( signature,
        { Objective.feasible; cost = as_hex "cost" cost; orig_sum = as_hex "orig_sum" orig_sum } )
  | _ -> malformed "verdicts are [signature, feasible, cost, orig_sum]"

(* Parse and check the envelope: the format number first, so an old
   document without a [kind] still reports its format. *)
let parse_document ~kind s =
  let j = try Json.of_string s with Json.Malformed msg -> raise (Malformed msg) in
  let fmt = as_int "format" (field j "format") in
  if fmt <> format_version then malformed "unsupported %s format %d — re-run" kind fmt;
  let k = as_str "kind" (field j "kind") in
  if k <> kind then malformed "expected a %S document, found kind %S" kind k;
  j

(* Every stored individual must partition 0..n-1: anything else would
   surface deep inside the resumed search as an index or assignment
   error instead of a corrupt checkpoint.  The member count is checked
   first, which also bounds [n] by the document's size. *)
let check_individual ~n ~horizontal what packs =
  if (not horizontal) && List.exists (fun p -> List.length p <> 1) packs then
    malformed "%s: a vertical checkpoint stores single-plane packs" what;
  let members = List.fold_left (List.fold_left (fun acc g -> acc + List.length g)) 0 packs in
  if members <> n then malformed "%s holds %d kernel ids for a %d-kernel program" what members n;
  match Kf_fusion.Plan.of_composed ~n packs with
  | _ -> ()
  | exception Invalid_argument msg -> malformed "%s: %s" what msg

let of_string s =
  let j = parse_document ~kind s in
  let nat name = as_nat name (field j name) in
  let population_size = nat "population_size" and n = nat "n" in
  let wall_time_s = as_hex "wall_time_s" (field j "wall_time_s") in
  if not (Float.is_finite wall_time_s && wall_time_s >= 0.) then
    malformed "wall_time_s must be finite and non-negative";
  let faults =
    match as_nats "faults" (field j "faults") with
    | [ injected; trapped; corrupted; retries; recovered; quarantined ] ->
        { Objective.injected; trapped; corrupted; retries; recovered; quarantined }
    | _ -> malformed "faults must be six ints"
  in
  (* the size field is not persisted: the saved process's table is gone *)
  let cache_stats name =
    match as_nats name (field j name) with
    | [ hits; misses; evictions ] -> { Objective.hits; misses; evictions; size = 0 }
    | _ -> malformed "%s must be three ints" name
  in
  let horizontal = as_bool "horizontal" (field j "horizontal") in
  let individual what j =
    let packs = as_packs what j in
    check_individual ~n ~horizontal what packs;
    packs
  in
  let islands =
    List.mapi
      (fun i isl ->
        let rng_str = as_str "rng_state" (field isl "rng_state") in
        let rng_state =
          match Int64.of_string_opt rng_str with
          | Some v -> v
          | None -> malformed "bad rng_state %S" rng_str
        in
        let population =
          List.map (individual "population") (as_list "population" (field isl "population"))
        in
        if population = [] then malformed "island %d is empty" i;
        { rng_state; population })
      (as_list "islands" (field j "islands"))
  in
  if islands = [] then malformed "islands must be non-empty";
  let total = List.fold_left (fun acc isl -> acc + List.length isl.population) 0 islands in
  if total <> population_size then
    malformed "island sizes sum to %d, not population_size %d" total population_size;
  let history =
    List.map
      (fun entry ->
        match as_list "history" entry with
        | [ g; c ] -> (as_int "history" g, as_hex "history" c)
        | _ -> malformed "history entries are [generation, cost] pairs")
      (as_list "history" (field j "history"))
  in
  {
    population_size;
    seed = as_int "seed" (field j "seed");
    n;
    generation = nat "generation";
    stall = nat "stall";
    evaluations = nat "evaluations";
    wall_time_s;
    faults;
    migration_cursor = nat "migration_cursor";
    group_cache = cache_stats "group_cache";
    plan_cache = cache_stats "plan_cache";
    horizontal;
    best = individual "best" (field j "best");
    history;
    islands;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = of_string (read_file path)

(* --- standalone warm-cache documents (serve daemon persistence) --- *)

module Cache = struct
  type stored_plan = { groups : int list list; cost : float; fingerprint : string }

  type entry = {
    key : string;
    verdicts : (int array * Objective.verdict) list;
    plan : stored_plan option;
  }

  type nonrec t = entry list

  let kind = "serve-cache"

  let render (t : t) =
    let b = Buffer.create 4096 in
    add_header b kind;
    Buffer.add_string b "  \"entries\": [";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "\n    {\"key\": ";
        add_str b e.key;
        Buffer.add_string b ", \"verdicts\": ";
        add_list b add_verdict e.verdicts;
        Buffer.add_string b ", \"plan\": ";
        (match e.plan with
        | None -> Buffer.add_string b "null"
        | Some p ->
            Buffer.add_string b "{\"groups\": ";
            add_groups b p.groups;
            Buffer.add_string b ", \"cost\": ";
            add_hex b p.cost;
            Buffer.add_string b ", \"fingerprint\": ";
            add_str b p.fingerprint;
            Buffer.add_char b '}');
        Buffer.add_char b '}')
      t;
    Buffer.add_string b "\n  ]\n}\n";
    Buffer.contents b

  let save path t = atomic_write path (render t)

  let of_string s : t =
    let j = parse_document ~kind s in
    List.map
      (fun e ->
        let key = as_str "key" (field e "key") in
        if key = "" then malformed "cache entry key must be non-empty";
        let verdicts = List.map as_verdict (as_list "verdicts" (field e "verdicts")) in
        let plan =
          match field e "plan" with
          | Json.Null -> None
          | p ->
              Some
                {
                  groups = as_groups "groups" (field p "groups");
                  cost = as_hex "cost" (field p "cost");
                  fingerprint = as_str "fingerprint" (field p "fingerprint");
                }
        in
        { key; verdicts; plan })
      (as_list "entries" (field j "entries"))

  let load path = of_string (read_file path)
end
