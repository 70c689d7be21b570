(* Minimal JSON: the writer and the one total parser shared by
   telemetry, the serve protocol and the persisted documents (no external
   JSON dependency is used). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Floats must stay inside the JSON grammar: NaN and infinities have no
   literal form, so they degrade to null rather than poison the stream. *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else begin
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string b s;
    (* "1e+06" and "1.5" are valid JSON; a bare "1" printed from a float
       is too, and parses back as an int — fine for telemetry. *)
    ()
  end

let rec buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v -> add_float b v
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          buffer b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  buffer b v;
  Buffer.contents b

(* --- parsing --- *)

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* Deepest nesting any caller's documents reach is about 7; the bound
   keeps a hostile line of brackets from exhausting the stack. *)
let max_depth = 64

(* [peek] returns a preallocated option per byte: a fresh [Some c] per
   look-ahead would make the lexer's allocation proportional to the
   input's length times the look-aheads per byte. *)
let some_char = Array.init 256 (fun i -> Some (Char.chr i))

let of_string (s : string) : t =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then some_char.(Char.code (String.unsafe_get s !pos)) else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> malformed "expected %C at offset %d, found %C" c !pos d
    | None -> malformed "expected %C at offset %d, found end of input" c !pos
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else malformed "bad literal at offset %d" !pos
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> malformed "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'u' ->
              (* Telemetry only ever escapes control characters; decode the
                 code point as a raw byte (sub-0x80 in practice). *)
              if !pos + 4 >= len then malformed "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?'
              | None -> malformed "bad \\u escape %S" hex);
              pos := !pos + 4
          | Some c -> malformed "unsupported escape \\%C" c
          | None -> malformed "unterminated escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    if !pos = start then malformed "expected number at offset %d" start;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some v -> Int v
    | None -> (
        match float_of_string_opt text with
        | Some v -> Float v
        | None -> malformed "bad number %S at offset %d" text start)
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (string_lit ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('[' | '{') when depth >= max_depth ->
        malformed "nesting deeper than %d at offset %d" max_depth !pos
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ value (depth + 1) ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := value (depth + 1) :: !items;
                more ()
            | Some ']' -> advance ()
            | _ -> malformed "expected ',' or ']' at offset %d" !pos
          in
          more ();
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            (k, value (depth + 1))
          in
          let fields = ref [ field () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields := field () :: !fields;
                more ()
            | Some '}' -> advance ()
            | _ -> malformed "expected ',' or '}' at offset %d" !pos
          in
          more ();
          Obj (List.rev !fields)
        end
    | Some _ -> number ()
    | None -> malformed "unexpected end of input"
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> len then malformed "trailing content at offset %d" !pos;
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_int_opt = function Int v -> Some v | _ -> None

let to_float_opt = function
  | Float v -> Some v
  | Int v -> Some (float_of_int v)
  | _ -> None

let to_string_opt = function Str v -> Some v | _ -> None
let to_list_opt = function Arr v -> Some v | _ -> None
