(* The SplitMix64 state lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh int64 on every draw.  The draws below inline
   [next] and keep the int64 arithmetic in registers, so [bits], [int],
   [float] and [chance] allocate nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let state t = Bytes.get_int64_ne t 0

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let int64 t = next t

let split t = of_state (next t)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: n must be non-negative";
  if n = 0 then [||]
  else begin
    (* Explicit ascending loop: the order in which the parent is advanced
       is part of the determinism contract (child [i] must equal the
       [i]-th sequential [split]), so don't rely on [Array.init]'s
       unspecified evaluation order. *)
    let out = Array.make n t in
    for i = 0 to n - 1 do
      out.(i) <- split t
    done;
    out
  end

let copy = Bytes.copy

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* [int]'s rejection loop: a top-level function, not a local closure,
   so a draw allocates nothing. *)
let rec draw_below t limit bound =
  let v = bits t in
  if v >= limit then draw_below t limit bound else v mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias.  [bits] yields one of 2^62
     values, so the rejection limit must be computed from 2^62 (the number
     of values), not 2^62 - 1 (the largest value): the largest multiple of
     [bound] not exceeding 2^62.  2^62 itself overflows a 63-bit OCaml
     int, so its remainder is computed as ((2^62 - 1) mod bound + 1) mod
     bound. *)
  let max = 0x3FFF_FFFF_FFFF_FFFF in
  let rem = ((max mod bound) + 1) mod bound in
  if rem = 0 then bits t mod bound
  else draw_below t (max - rem + 1) bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let chance t p = if p <= 0. then false else if p >= 1. then true else float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | l -> List.nth l (int t (List.length l))

let sample t k arr =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let scratch = Array.copy arr in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = scratch.(i) in
    scratch.(i) <- scratch.(j);
    scratch.(j) <- tmp
  done;
  Array.sub scratch 0 k

let gaussian t ~mean ~stddev =
  (* Box-Muller; u1 must be strictly positive for the log. *)
  let rec u () =
    let v = float t 1.0 in
    if v = 0. then u () else v
  in
  let u1 = u () and u2 = float t 1.0 in
  mean +. (stddev *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
