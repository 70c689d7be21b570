type t = {
  name : string;
  grid : Grid.t;
  arrays : Array_info.t array;
  kernels : Kernel.t array;
}

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun i (a : Array_info.t) -> if a.id <> i then err "array %s: id %d at position %d" a.name a.id i)
    t.arrays;
  Array.iteri
    (fun i (k : Kernel.t) -> if k.id <> i then err "kernel %s: id %d at position %d" k.name k.id i)
    t.kernels;
  let touched = Array.make (Array.length t.arrays) false in
  Array.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun (a : Access.t) ->
          if a.array < 0 || a.array >= Array.length t.arrays then
            err "kernel %s references unknown array id %d" k.name a.array
          else touched.(a.array) <- true)
        k.accesses;
      if k.registers_per_thread > 255 then
        err "kernel %s exceeds the 255 registers/thread ISA bound" k.name)
    t.kernels;
  Array.iteri
    (fun i v -> if not v then err "array %s is touched by no kernel" t.arrays.(i).name)
    touched;
  List.rev !errors

let create ~name ~grid ~arrays ~kernels =
  let t = { name; grid; arrays = Array.of_list arrays; kernels = Array.of_list kernels } in
  match validate t with
  | [] -> t
  | e :: _ -> invalid_arg (Printf.sprintf "Program.create(%s): %s" name e)

let num_kernels t = Array.length t.kernels
let num_arrays t = Array.length t.arrays

let kernel t i =
  if i < 0 || i >= num_kernels t then invalid_arg (Printf.sprintf "Program.kernel: bad id %d" i);
  t.kernels.(i)

let array t i =
  if i < 0 || i >= num_arrays t then invalid_arg (Printf.sprintf "Program.array: bad id %d" i);
  t.arrays.(i)

let total_flops t =
  Array.fold_left (fun acc k -> acc +. Kernel.total_flops k t.grid) 0. t.kernels

let with_grid t grid = { t with grid }

(* Sub-program extraction for edit traces: keep the listed kernels (in
   the given order), drop every array no survivor touches, and renumber
   both id spaces so the result passes [validate].  The survivors keep
   their full access records — only the ids are rewritten — so a kept
   kernel is recognizably "the same kernel" across program versions
   (content-identical up to renumbering), which is what the streaming
   delta relies on.  Records whose ids do not move are shared with [t]
   rather than copied: an edit trace keeps every version it decided,
   and most kernels keep their ids from one version to the next. *)
let rec map_shared f = function
  | [] -> []
  | x :: tl as l ->
      let x' = f x and tl' = map_shared f tl in
      if x' == x && tl' == tl then l else x' :: tl'

let restrict t keep =
  if keep = [] then invalid_arg "Program.restrict: must keep at least one kernel";
  let kept = List.map (kernel t) keep in
  let used = Array.make (num_arrays t) false in
  List.iter
    (fun (k : Kernel.t) ->
      List.iter (fun (a : Access.t) -> used.(a.array) <- true) k.accesses)
    kept;
  let remap = Array.make (num_arrays t) (-1) in
  let arrays = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i u ->
      if u then begin
        remap.(i) <- !next;
        let info = t.arrays.(i) in
        arrays := (if i = !next then info else { info with Array_info.id = !next }) :: !arrays;
        incr next
      end)
    used;
  let kernels =
    List.mapi
      (fun i (k : Kernel.t) ->
        let accesses =
          map_shared
            (fun (a : Access.t) ->
              if remap.(a.array) = a.array then a else { a with Access.array = remap.(a.array) })
            k.accesses
        in
        if i = k.Kernel.id && accesses == k.accesses then k else { k with Kernel.id = i; accesses })
      kept
  in
  create ~name:t.name ~grid:t.grid ~arrays:(List.rev !arrays) ~kernels

let edit_kernel t id f =
  let k = kernel t id in
  let k' = { (f k) with Kernel.id = id } in
  let kernels =
    Array.to_list (Array.mapi (fun i k0 -> if i = id then k' else k0) t.kernels)
  in
  create ~name:t.name ~grid:t.grid ~arrays:(Array.to_list t.arrays) ~kernels

let with_blocks t ~block_x ~block_y =
  let g = t.grid in
  {
    t with
    grid = Grid.make ~nx:g.Grid.nx ~ny:g.Grid.ny ~nz:g.Grid.nz ~block_x ~block_y;
  }

let pp_stats ppf t =
  Format.fprintf ppf "%s: %d kernels, %d arrays, %a" t.name (num_kernels t) (num_arrays t)
    Grid.pp t.grid

let pp ppf t =
  pp_stats ppf t;
  Format.pp_print_newline ppf ();
  Array.iter (fun k -> Format.fprintf ppf "  %a@." Kernel.pp k) t.kernels
