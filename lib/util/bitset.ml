type t = { n : int; words : int array }

(* [Sys.int_size] (63 on 64-bit hosts) members per native int word.
   Words past the universe's last member stay zero, so structural
   equality, comparison and hashing of the word arrays are by content. *)

let bits = Sys.int_size
let words_for n = (n + bits - 1) / bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { n; words = Array.make (words_for n) 0 }

let universe_size t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.n)

let add t i =
  check t i;
  let w = i / bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl (i mod bits)))

let remove t i =
  check t i;
  let w = i / bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w land lnot (1 lsl (i mod bits)))

let mem t i =
  check t i;
  Array.unsafe_get t.words (i / bits) land (1 lsl (i mod bits)) <> 0

let singleton n i =
  let t = create n in
  add t i;
  t

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let copy t = { n = t.n; words = Array.copy t.words }

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t =
  let c = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    c := !c + popcount t.words.(w)
  done;
  !c

let rec zero_from words w = w >= Array.length words || (words.(w) = 0 && zero_from words (w + 1))
let is_empty t = zero_from t.words 0

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: universe size mismatch"

let equal a b =
  same_universe a b;
  a.words = b.words

let binop op a b =
  same_universe a b;
  { n = a.n; words = Array.map2 op a.words b.words }

let union a b = binop ( lor ) a b
let inter a b = binop ( land ) a b
let diff a b = binop (fun x y -> x land lnot y) a b

let for_all2 p a b =
  same_universe a b;
  let rec go w = w >= Array.length a.words || (p a.words.(w) b.words.(w) && go (w + 1)) in
  go 0

let subset a b = for_all2 (fun x y -> x land lnot y = 0) a b
let disjoint a b = for_all2 (fun x y -> x land y = 0) a b

let union_into dst src =
  same_universe dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into dst src =
  same_universe dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let diff_into dst src =
  same_universe dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land lnot src.words.(w)
  done

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let intersects_outside a b ~outside =
  same_universe a b;
  same_universe a outside;
  let rec go w =
    w < Array.length a.words
    && (a.words.(w) land b.words.(w) land lnot outside.words.(w) <> 0 || go (w + 1))
  in
  go 0

(* Index of the single set bit of [b], by binary search. *)
let bit_index b =
  let rec go b i width =
    if width = 0 then i
    else if b land ((1 lsl width) - 1) = 0 then go (b lsr width) (i + width) (width / 2)
    else go b i (width / 2)
  in
  go b 0 32

(* Visits set bits lowest first, reading each word once when the walk
   reaches it. *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let x = ref t.words.(w) in
    while !x <> 0 do
      let b = !x land - !x in
      f ((w * bits) + bit_index b);
      x := !x lxor b
    done
  done

let iter_with f env t =
  for w = 0 to Array.length t.words - 1 do
    let x = ref t.words.(w) in
    while !x <> 0 do
      let b = !x land - !x in
      f env ((w * bits) + bit_index b);
      x := !x lxor b
    done
  done

let iter_inter_with f env a b =
  same_universe a b;
  for w = 0 to Array.length a.words - 1 do
    let x = ref (a.words.(w) land b.words.(w)) in
    while !x <> 0 do
      let bit = !x land - !x in
      f env ((w * bits) + bit_index bit);
      x := !x lxor bit
    done
  done

let iter_diff_with f env a b =
  same_universe a b;
  for w = 0 to Array.length a.words - 1 do
    let x = ref (a.words.(w) land lnot b.words.(w)) in
    while !x <> 0 do
      let bit = !x land - !x in
      f env ((w * bits) + bit_index bit);
      x := !x lxor bit
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let choose t =
  let rec go w =
    if w >= Array.length t.words then raise Not_found
    else
      let x = t.words.(w) in
      if x = 0 then go (w + 1) else (w * bits) + bit_index (x land -x)
  in
  go 0

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t = Array.fold_left (fun h w -> (h * 1_000_003) lxor w) t.n t.words land max_int

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list t)
