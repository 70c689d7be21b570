module Plan = Kf_fusion.Plan
module Bitset = Kf_util.Bitset
module Sigbuf = Plan.Sigbuf

(* Open-addressing table specialized for int-array signature keys.  The
   generic [Hashtbl.Make] costs two hash computations per probe (shard
   selection and bucket lookup) plus a pointer chase per bucket entry;
   this table hashes once, rejects mismatches on the stored hash before
   touching key contents, and probes linearly.  Entries are never
   removed individually, so no tombstones.

   The table itself is single-writer and unsynchronized: concurrency is
   the caller's problem.  {!Objective} layers its sharing discipline on
   top — a read-only base table shared by all domains plus one private
   table per domain, merged into the base at generation barriers — so
   probes take no lock at all.

   Probes use a *borrowed* key: the caller encodes the signature into a
   reusable {!Plan.Sigbuf} arena and the probe compares against the
   buffer prefix in place.  An owned copy is extracted only on a miss,
   when the key must outlive the probe. *)
module Sig_tbl = struct
  (* Physical sentinel for an empty slot; no real key is ever this
     array, and slots are tested with [==]. *)
  let no_key : int array = [| min_int |]

  type 'a t = {
    mutable keys : int array array;
    mutable hashes : int array;
    mutable vals : 'a option array;
    mutable mask : int;  (* capacity - 1, capacity a power of two *)
    mutable count : int;
  }

  let create ?(capacity = 512) () =
    let cap = ref 8 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    {
      keys = Array.make !cap no_key;
      hashes = Array.make !cap 0;
      vals = Array.make !cap None;
      mask = !cap - 1;
      count = 0;
    }

  let count t = t.count

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) no_key;
    Array.fill t.vals 0 (Array.length t.vals) None;
    t.count <- 0

  (* Does the stored key equal the first [len] ints of [buf]?  Probe
     loops are top-level recursive functions with explicit arguments:
     local closures over the key and table would allocate on every
     probe. *)
  let rec equal_from (key : int array) (buf : int array) len i =
    i >= len || (Array.unsafe_get key i = Array.unsafe_get buf i && equal_from key buf len (i + 1))

  let key_equal_pre key buf len = Array.length key = len && equal_from key buf len 0

  (* Slot holding the borrowed key, or the empty slot where it belongs. *)
  let rec slot_from t buf len h i =
    let idx = (h + i) land t.mask in
    let k = Array.unsafe_get t.keys idx in
    if k == no_key then idx
    else if Array.unsafe_get t.hashes idx = h && key_equal_pre k buf len then idx
    else slot_from t buf len h (i + 1)

  let slot_pre t buf len h = slot_from t buf len h 0

  let find_pre t ~buf ~len ~hash =
    let idx = slot_pre t buf len hash in
    if t.keys.(idx) == no_key then None else t.vals.(idx)

  let mem_pre t ~buf ~len ~hash =
    let idx = slot_pre t buf len hash in
    t.keys.(idx) != no_key

  let grow t =
    let old_keys = t.keys and old_hashes = t.hashes and old_vals = t.vals in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap no_key;
    t.hashes <- Array.make cap 0;
    t.vals <- Array.make cap None;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k != no_key then begin
          let idx = slot_pre t k (Array.length k) old_hashes.(i) in
          t.keys.(idx) <- k;
          t.hashes.(idx) <- old_hashes.(i);
          t.vals.(idx) <- old_vals.(i)
        end)
      old_keys

  (* Insert an owned key (or replace the value of an equal existing
     key — structural memo values for equal keys are equal, so replace
     is as good as keep). *)
  let add t key ~hash v =
    let idx = slot_pre t key (Array.length key) hash in
    if t.keys.(idx) == no_key then begin
      t.keys.(idx) <- key;
      t.hashes.(idx) <- hash;
      t.vals.(idx) <- Some v;
      t.count <- t.count + 1;
      (* Keep load factor under 1/2 so probe chains stay short. *)
      if 2 * t.count > t.mask then grow t
    end
    else t.vals.(idx) <- Some v

  let iter f t =
    Array.iteri
      (fun i k ->
        if k != no_key then
          match t.vals.(i) with
          | Some v -> f k ~hash:t.hashes.(i) v
          | None -> assert false)
      t.keys
end

(* The fixed per-kernel structure the partition state reads. *)
type memos = {
  succs : int array array;
  preds : int array array;
  kin : Bitset.t array;
  desc : Bitset.t array;
  anc : Bitset.t array;
}

(* Kept for readers of the per-table hit-ratio counters, which read
   zero: no structural query is memoized. *)
let memo_stats (_ : memos) : (string * (int * int)) list = []
