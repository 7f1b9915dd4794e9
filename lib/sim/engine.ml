(* Discrete-event simulation engine.

   Virtual time is a float measured in MICROSECONDS, matching the unit the
   paper reports commit latencies in.  The engine owns a single event
   queue; [schedule] registers a thunk to run after a delay, [run_until]
   advances virtual time executing due events in (time, seq) order. *)

type handle = { mutable cancelled : bool }

type t = {
  mutable now : float;
  mutable seq : int;
  queue : (handle * (unit -> unit)) Heap.t;
  rng : Rng.t;
  mutable executed : int;
}

let us = 1.0
let ms = 1_000.0
let s = 1_000_000.0

let create ?(seed = 42) () =
  { now = 0.0; seq = 0; queue = Heap.create (); rng = Rng.of_int seed; executed = 0 }

let now t = t.now

let rng t = t.rng

let executed_events t = t.executed

let schedule t ~delay fn =
  assert (delay >= 0.0);
  let handle = { cancelled = false } in
  t.seq <- t.seq + 1;
  Heap.push t.queue ~key:(t.now +. delay) ~seq:t.seq (handle, fn);
  handle

let schedule_at t ~time fn =
  let delay = max 0.0 (time -. t.now) in
  schedule t ~delay fn

let cancel handle = handle.cancelled <- true

(* Run events until the queue is exhausted or virtual time would exceed
   [limit].  Time is left at [limit] when the horizon is reached, so
   consecutive [run_until] calls compose. *)
let run_until t limit =
  let rec loop () =
    if (not (Heap.is_empty t.queue)) && Heap.min_key t.queue <= limit then begin
      let key = Heap.min_key t.queue in
      let handle, fn = Heap.pop_min t.queue in
      t.now <- max t.now key;
      if not handle.cancelled then begin
        t.executed <- t.executed + 1;
        fn ()
      end;
      loop ()
    end
    else t.now <- max t.now limit
  in
  loop ()

let run_for t duration = run_until t (t.now +. duration)

let pending t = Heap.length t.queue
