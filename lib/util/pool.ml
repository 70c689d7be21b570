(* Persistent worker-domain pool handing out task indices from one
   shared counter.

   Spawning a domain costs far more than a generation of GA work on small
   populations, and the search wants a fan-out every generation.  This
   pool spawns its helpers once and re-engages them over a
   mutex/condition pair: [run] publishes one job epoch, every helper runs
   the job once, and the job is a loop claiming task indices from an
   atomic counter until they run out.  The calling domain runs the same
   loop, so a pool of [n] domains spawns [n - 1] helpers.  Each index is
   claimed by exactly one domain, which is what keeps callers with pure
   per-task functions deterministic under any interleaving. *)

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;  (* signalled when a new job epoch is published *)
  finished : Condition.t;  (* signalled when the last helper completes *)
  mutable job : unit -> unit;  (* current job; never raises *)
  mutable epoch : int;  (* job generation counter; helpers run each epoch once *)
  mutable remaining : int;  (* helpers still inside the current epoch *)
  mutable stopping : bool;
  mutable helpers : unit Domain.t list;
  busy : bool Atomic.t;  (* a run is fanning out over the helpers *)
}

let helper_loop t =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while t.epoch = !last && not t.stopping do
      Condition.wait t.work t.lock
    done;
    if t.stopping then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      last := t.epoch;
      let f = t.job in
      Mutex.unlock t.lock;
      f ();
      Mutex.lock t.lock;
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.signal t.finished;
      Mutex.unlock t.lock
    end
  done

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be positive";
  (* Backtrace recording is per-domain state: a freshly spawned domain
     starts from the OCAMLRUNPARAM default regardless of what the
     creating domain set via [Printexc.record_backtrace].  Capture the
     creator's setting here and replay it inside each helper, otherwise
     a failure's captured backtrace is empty and the re-raise in [run]
     loses the originating frame. *)
  let record_bt = Printexc.backtrace_status () in
  let t =
    {
      size;
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = ignore;
      epoch = 0;
      remaining = 0;
      stopping = false;
      helpers = [];
      busy = Atomic.make false;
    }
  in
  t.helpers <-
    List.init (size - 1) (fun _ ->
        Domain.spawn (fun () ->
            if record_bt then Printexc.record_backtrace true;
            helper_loop t));
  t

let size t = t.size

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: tasks must be non-negative";
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  (* Claim indices until they run out; after the first failure, stop
     running user code and leave the rest unclaimed. *)
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < tasks && Option.is_none (Atomic.get failure) then begin
      (match f i with
      | () -> ()
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt))));
      work ()
    end
  in
  (* One task, no helpers, or a fan-out already in flight (a nested or
     concurrent run): the calling domain runs everything itself. *)
  let fan_out = tasks > 1 && t.size > 1 && Atomic.compare_and_set t.busy false true in
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    if fan_out then Atomic.set t.busy false;
    invalid_arg "Pool.run: pool is shut down"
  end;
  if fan_out then begin
    t.job <- work;
    t.epoch <- t.epoch + 1;
    t.remaining <- t.size - 1;
    Condition.broadcast t.work
  end;
  Mutex.unlock t.lock;
  work ();
  if fan_out then begin
    (* The barrier's mutex handshake also publishes the helpers' writes
       to the caller. *)
    Mutex.lock t.lock;
    while t.remaining > 0 do
      Condition.wait t.finished t.lock
    done;
    t.job <- ignore;
    Mutex.unlock t.lock;
    Atomic.set t.busy false
  end;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let shutdown t =
  Mutex.lock t.lock;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  if not already then begin
    List.iter Domain.join t.helpers;
    t.helpers <- []
  end

let with_pool size f =
  let t = create size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
