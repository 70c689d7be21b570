exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

(* The IR constructors validate with [Invalid_argument]; the parser
   reports their verdicts as parse errors at the declaring line, so
   [parse] raises nothing else on any text. *)
let checked line f = try f () with Invalid_argument msg -> fail line "%s" msg

(* --- stencil spec --- *)

let parse_stencil line s =
  match s with
  | "point" -> Stencil.point
  | "star5" -> Stencil.star5
  | "star9" -> Stencil.star9
  | "asym4" -> Stencil.asym_west_south
  | "cross3v" -> Stencil.cross3_vertical
  | _ -> begin
      match String.split_on_char ':' s with
      | [ "star"; r ] -> begin
          match int_of_string_opt r with
          | Some r when r >= 0 -> Stencil.star_radius r
          | _ -> fail line "bad star radius %S" r
        end
      | [ "box"; r ] -> begin
          match int_of_string_opt r with
          | Some r when r >= 0 -> Stencil.box_radius r
          | _ -> fail line "bad box radius %S" r
        end
      | [ "load"; n ] -> begin
          match int_of_string_opt n with
          | Some n when n >= 1 && n <= 25 -> Stencil.spiral n
          | _ -> fail line "bad load point count %S" n
        end
      | _ -> fail line "unknown stencil %S" s
    end

(* "(0,0,0)(1,0,0)" -> offsets *)
let parse_offsets line s =
  let s = String.trim s in
  if String.length s = 0 then fail line "empty offset list";
  let parts =
    String.split_on_char '(' s
    |> List.filter (fun x -> String.trim x <> "")
    |> List.map (fun x ->
           match String.index_opt x ')' with
           | None -> fail line "unbalanced parenthesis in offsets"
           | Some i -> String.sub x 0 i)
  in
  let offsets =
    List.map
      (fun triple ->
        match List.map String.trim (String.split_on_char ',' triple) with
        | [ a; b; c ] -> begin
            match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
            | Some di, Some dj, Some dk -> { Stencil.di; dj; dk }
            | _ -> fail line "bad offset (%s)" triple
          end
        | _ -> fail line "offset needs three components: (%s)" triple)
      parts
  in
  Stencil.make offsets

(* --- tokenized line parsing --- *)

type pending_kernel = {
  pk_line : int;
  pk_name : string;
  pk_regs : int;
  pk_addr : int;
  pk_active : float;
  pk_extra : float;
  mutable pk_accesses : Access.t list; (* reversed *)
}

type state = {
  mutable name : string option;
  mutable grid : Grid.t option;
  mutable arrays : Array_info.t list; (* reversed *)
  mutable kernels : pending_kernel list; (* reversed *)
}

let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let rec parse_kv line keys = function
  | [] -> []
  | key :: value :: rest when List.mem_assoc key keys -> (key, value) :: parse_kv line keys rest
  | key :: _ -> fail line "unknown or incomplete attribute %S" key

let kv_int line kvs key default =
  match List.assoc_opt key kvs with
  | None -> default
  | Some v -> begin
      match int_of_string_opt v with Some n -> n | None -> fail line "bad integer %S for %s" v key
    end

let kv_float line kvs key default =
  match List.assoc_opt key kvs with
  | None -> default
  | Some v -> begin
      match float_of_string_opt v with Some f -> f | None -> fail line "bad number %S for %s" v key
    end

let array_id st line name =
  let arrays = List.rev st.arrays in
  let rec go i = function
    | [] -> fail line "unknown array %S" name
    | (a : Array_info.t) :: rest -> if a.Array_info.name = name then i else go (i + 1) rest
  in
  go 0 arrays

let parse_line st lineno raw =
  let raw = match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw in
  match tokens raw with
  | [] -> ()
  | "program" :: rest ->
      if st.name <> None then fail lineno "duplicate program line";
      st.name <- Some (String.concat " " rest)
  | [ "grid"; nx; ny; nz; "blocks"; bx; by ] -> begin
      match
        ( int_of_string_opt nx, int_of_string_opt ny, int_of_string_opt nz,
          int_of_string_opt bx, int_of_string_opt by )
      with
      | Some nx, Some ny, Some nz, Some bx, Some by ->
          if st.grid <> None then fail lineno "duplicate grid line";
          st.grid <- Some (Grid.make ~nx ~ny ~nz ~block_x:bx ~block_y:by)
      | _ -> fail lineno "bad grid numbers"
    end
  | "grid" :: _ -> fail lineno "grid syntax: grid <nx> <ny> <nz> blocks <bx> <by>"
  | "array" :: name :: attrs ->
      let kvs = parse_kv lineno [ ("elem", ()); ("extent", ()) ] attrs in
      let elem_bytes = kv_int lineno kvs "elem" 8 in
      let extent =
        match List.assoc_opt "extent" kvs with
        | None | Some "3d" -> Array_info.Field3d
        | Some "2d" -> Array_info.Plane2d
        | Some other -> fail lineno "extent must be 2d or 3d, not %S" other
      in
      if List.exists (fun (a : Array_info.t) -> a.Array_info.name = name) st.arrays then
        fail lineno "duplicate array %S" name;
      st.arrays <-
        Array_info.make ~id:(List.length st.arrays) ~name ~elem_bytes ~extent () :: st.arrays
  | "kernel" :: name :: attrs ->
      let kvs =
        parse_kv lineno [ ("regs", ()); ("addr", ()); ("active", ()); ("extra", ()) ] attrs
      in
      st.kernels <-
        {
          pk_line = lineno;
          pk_name = name;
          pk_regs = kv_int lineno kvs "regs" 32;
          pk_addr = kv_int lineno kvs "addr" 6;
          pk_active = kv_float lineno kvs "active" 1.0;
          pk_extra = kv_float lineno kvs "extra" 0.0;
          pk_accesses = [];
        }
        :: st.kernels
  | mode :: name :: rest when mode = "read" || mode = "write" || mode = "readwrite" -> begin
      match st.kernels with
      | [] -> fail lineno "access line before any kernel"
      | pk :: _ ->
          let mode =
            match mode with
            | "read" -> Access.Read
            | "write" -> Access.Write
            | _ -> Access.ReadWrite
          in
          let pattern, flops =
            match rest with
            | [] -> (Stencil.point, 0.)
            | "offsets" :: offs ->
                (* flops may trail the offsets as a final bare number *)
                let offs, flops =
                  match List.rev offs with
                  | last :: before when float_of_string_opt last <> None
                                        && not (String.contains last '(') ->
                      (List.rev before, float_of_string last)
                  | _ -> (offs, 0.)
                in
                (parse_offsets lineno (String.concat "" offs), flops)
            | [ stencil ] -> (parse_stencil lineno stencil, 0.)
            | [ stencil; flops ] -> begin
                match float_of_string_opt flops with
                | Some f -> (parse_stencil lineno stencil, f)
                | None -> fail lineno "bad flops %S" flops
              end
            | _ -> fail lineno "access syntax: <mode> <array> [stencil [flops]]"
          in
          let array = array_id st lineno name in
          pk.pk_accesses <- { Access.array; mode; pattern; flops } :: pk.pk_accesses
    end
  | word :: _ -> fail lineno "unrecognized directive %S" word

let parse text =
  let st = { name = None; grid = None; arrays = []; kernels = [] } in
  let lines = String.split_on_char '\n' text in
  List.iteri (fun i line -> checked (i + 1) (fun () -> parse_line st (i + 1) line)) lines;
  let name = match st.name with Some n when n <> "" -> n | _ -> fail 0 "missing program line" in
  let grid = match st.grid with Some g -> g | None -> fail 0 "missing grid line" in
  let kernels =
    List.rev st.kernels
    |> List.mapi (fun id pk ->
           checked pk.pk_line (fun () ->
               Kernel.make ~id ~name:pk.pk_name ~accesses:(List.rev pk.pk_accesses)
                 ~extra_flops_per_site:pk.pk_extra ~registers_per_thread:pk.pk_regs
                 ~addr_registers:pk.pk_addr ~active_fraction:pk.pk_active ()))
  in
  let last_line = List.length lines - if String.ends_with ~suffix:"\n" text then 1 else 0 in
  checked last_line (fun () ->
      Program.create ~name ~grid ~arrays:(List.rev st.arrays) ~kernels)

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  parse content

let print (p : Program.t) =
  let buf = Buffer.create 4096 in
  let g = p.Program.grid in
  Buffer.add_string buf (Printf.sprintf "program %s\n" p.Program.name);
  Buffer.add_string buf
    (Printf.sprintf "grid %d %d %d blocks %d %d\n" g.Grid.nx g.Grid.ny g.Grid.nz g.Grid.block_x
       g.Grid.block_y);
  Array.iter
    (fun (a : Array_info.t) ->
      Buffer.add_string buf
        (Printf.sprintf "array %s elem %d extent %s\n" a.Array_info.name a.Array_info.elem_bytes
           (match a.Array_info.extent with Array_info.Field3d -> "3d" | Array_info.Plane2d -> "2d")))
    p.Program.arrays;
  Array.iter
    (fun (k : Kernel.t) ->
      Buffer.add_string buf
        (Printf.sprintf "kernel %s regs %d addr %d active %g extra %g\n" k.Kernel.name
           k.Kernel.registers_per_thread k.Kernel.addr_registers k.Kernel.active_fraction
           k.Kernel.extra_flops_per_site);
      List.iter
        (fun (a : Access.t) ->
          let mode =
            match a.Access.mode with
            | Access.Read -> "read"
            | Access.Write -> "write"
            | Access.ReadWrite -> "readwrite"
          in
          let offs =
            String.concat ""
              (List.map
                 (fun o -> Printf.sprintf "(%d,%d,%d)" o.Stencil.di o.Stencil.dj o.Stencil.dk)
                 (Stencil.offsets a.Access.pattern))
          in
          Buffer.add_string buf
            (Printf.sprintf "  %s %s offsets %s %g\n" mode
               (Program.array p a.Access.array).Array_info.name offs a.Access.flops))
        k.Kernel.accesses)
    p.Program.kernels;
  Buffer.contents buf

let write_file path p =
  let oc = open_out path in
  output_string oc (print p);
  close_out oc
