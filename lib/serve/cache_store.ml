(* Cross-request warm cache: group verdicts keyed by a content digest of
   (program text, device, model), one immutable flat Objective.Block per
   program — a few words per verdict, shared with requests and the
   writer without copying.  Verdicts are pure functions of that triple,
   so an entry seeded into a later objective over the same triple can
   only skip evaluations, never change a result.  An entry can also
   carry the *answer* — the best plan a completed search found,
   fingerprinted by its search parameters — so a repeat request is
   served outright instead of merely warm.

   The store persists as a Snapshot.Cache document, format 8, streamed
   entry by entry — the one format, with no reader for older ones: a
   daemon restarted over an older file logs it as unreadable and starts
   cold.  A warm restart from a format-8 file serves the repeat request
   with the same answer and cost as the process that wrote it.

   Long streaming sessions mint one digest per program version, so the
   bound matters: eviction is LRU (every find/absorb bumps recency) and
   counted, not FIFO — a client alternating between two programs keeps
   both warm no matter how much unrelated traffic passes between. *)

module Objective = Kf_search.Objective
module Block = Objective.Block
module Snapshot = Kf_search.Snapshot

type entry = {
  mutable verdicts : Block.t;
  mutable plan : Snapshot.Cache.stored_plan option;
  mutable last_use : int;  (* global tick at last touch; min evicts *)
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_entries : int;
  mutable tick : int;
  mutable evictions : int;  (* entries dropped by the LRU bound *)
  mutable dirty : bool;  (* unsaved changes since the last save/load *)
}

let create ?(max_entries = 64) () =
  if max_entries < 1 then invalid_arg "Cache_store.create: max_entries must be positive";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 16;
    max_entries;
    tick = 0;
    evictions = 0;
    dirty = false;
  }

let key ~program ~device ~model =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Kf_ir.Program_io.print program;
            device.Kf_gpu.Device.name;
            Objective.model_name model;
          ]))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch_locked t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | None -> Block.empty
      | Some e ->
          touch_locked t e;
          e.verdicts)

let find_plan t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | None -> None
      | Some e ->
          touch_locked t e;
          e.plan)

let evict_lru_locked t =
  while Hashtbl.length t.table > t.max_entries do
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (_, age) when age <= e.last_use -> ()
        | _ -> victim := Some (k, e.last_use))
      t.table;
    match !victim with
    | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.evictions <- t.evictions + 1
    | None -> ()
  done

let entry_locked t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
      touch_locked t e;
      e
  | None ->
      let e = { verdicts = Block.empty; plan = None; last_use = 0 } in
      touch_locked t e;
      Hashtbl.replace t.table k e;
      evict_lru_locked t;
      e

let absorb t k verdicts =
  if Block.length verdicts > 0 then
    locked t (fun () ->
        let e = entry_locked t k in
        (* An export from a request seeded by this entry is a superset of
           the seed (seeded verdicts re-export), so keeping the larger
           block retains every verdict either side knows. *)
        if Block.length verdicts > Block.length e.verdicts then begin
          e.verdicts <- verdicts;
          t.dirty <- true
        end)

let store_plan t k plan =
  locked t (fun () ->
      let e = entry_locked t k in
      e.plan <- Some plan;
      t.dirty <- true)

let programs t = locked t (fun () -> Hashtbl.length t.table)

let verdict_count t =
  locked t (fun () -> Hashtbl.fold (fun _ e acc -> acc + Block.length e.verdicts) t.table 0)

let evictions t = locked t (fun () -> t.evictions)
let dirty t = locked t (fun () -> t.dirty)

let save t path =
  let entries =
    locked t (fun () ->
        t.dirty <- false;
        (* persist in recency order (stalest first) so saves are
           deterministic and a reload replays the same LRU order *)
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.table []
        |> List.sort (fun (_, a) (_, b) -> compare a.last_use b.last_use)
        |> List.map (fun (k, e) ->
               { Snapshot.Cache.key = k; verdicts = e.verdicts; plan = e.plan }))
  in
  try Snapshot.Cache.save path entries
  with e ->
    (* the file on disk is stale: leave the store dirty so the next save
       retries *)
    let bt = Printexc.get_raw_backtrace () in
    locked t (fun () -> t.dirty <- true);
    Printexc.raise_with_backtrace e bt

let load t path =
  let entries = Snapshot.Cache.load path in
  locked t (fun () ->
      List.iter
        (fun { Snapshot.Cache.key; verdicts; plan } ->
          if Block.length verdicts > 0 || plan <> None then begin
            let e = entry_locked t key in
            if Block.length verdicts > Block.length e.verdicts then e.verdicts <- verdicts;
            match plan with Some _ -> e.plan <- plan | None -> ()
          end)
        entries;
      t.dirty <- false)

let load_if_exists t path = if Sys.file_exists path then load t path
