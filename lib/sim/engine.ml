(* Discrete-event simulation engine.

   Virtual time is a float measured in MICROSECONDS, matching the unit the
   paper reports commit latencies in.  The engine owns a single event
   queue; [schedule] registers a thunk to run after a delay, [run_until]
   advances virtual time executing due events in (time, seq) order.

   The queue holds live work only.  A handle is the heap value itself
   and carries its thunk, so an event costs one small record.  [cancel]
   drops the thunk at once and counts the event dead; once dead events
   outnumber live ones (past [compact_floor]) the heap is rebuilt
   without them, so each cancel costs amortized O(1) and a workload that
   arms a timeout per request and cancels it on reply queues only what
   is still in flight. *)

type state = Queued | Cancelled | Fired

type handle = { mutable state : state; mutable fn : unit -> unit; owner : t }

and t = {
  mutable now : float;
  mutable seq : int;
  queue : handle Heap.t;
  rng : Rng.t;
  mutable executed : int;
  mutable live : int; (* queued and not cancelled *)
  mutable dead : int; (* cancelled but still in the heap *)
}

let us = 1.0
let ms = 1_000.0
let s = 1_000_000.0

(* Dead events tolerated before a rebuild is considered at all: below
   it, a rebuild would cost more than the tombstones it frees. *)
let compact_floor = 64

let create ?(seed = 42) () =
  {
    now = 0.0;
    seq = 0;
    queue = Heap.create ();
    rng = Rng.of_int seed;
    executed = 0;
    live = 0;
    dead = 0;
  }

let now t = t.now

let rng t = t.rng

let executed_events t = t.executed

let schedule t ~delay fn =
  assert (delay >= 0.0);
  let handle = { state = Queued; fn; owner = t } in
  t.seq <- t.seq + 1;
  Heap.push t.queue ~key:(t.now +. delay) ~seq:t.seq handle;
  t.live <- t.live + 1;
  handle

let schedule_at t ~time fn =
  let delay = max 0.0 (time -. t.now) in
  schedule t ~delay fn

let nothing () = ()

let is_queued h = match h.state with Queued -> true | Cancelled | Fired -> false

let cancel h =
  match h.state with
  | Cancelled | Fired -> ()
  | Queued ->
    let t = h.owner in
    h.state <- Cancelled;
    h.fn <- nothing;
    t.live <- t.live - 1;
    t.dead <- t.dead + 1;
    if t.dead > compact_floor && t.dead > t.live then begin
      Heap.filter t.queue is_queued;
      t.dead <- 0
    end

(* Run events until the queue is exhausted or virtual time would exceed
   [limit].  Time is left at [limit] when the horizon is reached, so
   consecutive [run_until] calls compose. *)
let run_until t limit =
  let rec loop () =
    if (not (Heap.is_empty t.queue)) && Heap.min_key t.queue <= limit then begin
      let key = Heap.min_key t.queue in
      let h = Heap.pop_min t.queue in
      t.now <- max t.now key;
      (match h.state with
      | Queued ->
        let fn = h.fn in
        h.state <- Fired;
        h.fn <- nothing;
        t.live <- t.live - 1;
        t.executed <- t.executed + 1;
        fn ()
      | Cancelled -> t.dead <- t.dead - 1
      | Fired -> assert false);
      loop ()
    end
    else t.now <- max t.now limit
  in
  loop ()

let run_for t duration = run_until t (t.now +. duration)

let pending t = t.live
