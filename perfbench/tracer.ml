(* Span recorder for the traced run.

   Spans are opened and closed around calls into a layer's public entry
   points (see Fleet).  Each closed span adds its self time — its length
   minus the time covered by its child spans — to a per-kind total, so
   the per-layer figures cover every span of the measured window.  The
   first [capacity] spans are also kept in preallocated parallel arrays
   (name, start, end, parent, track, identifier, virtual start) and
   written out as Chrome trace-event JSON when the run ends.

   Spans are timed with the wall clock: the benchmark is one OS thread
   that never blocks, so wall time inside a span is CPU time of that
   thread (plus whatever the OS steals, which the medians absorb). *)

let kind_names =
  [|
    "sim.run";
    "net.send";
    "workload.send";
    "workload.reply";
    "workload.recv";
    "core.handle.write_req";
    "core.handle.read_req";
    "core.handle.ae";
    "core.handle.ae_resp";
    "core.handle.vote";
    "core.handle.read_index";
    "core.handle.snapshot";
    "core.handle.other";
  |]

let k_run = 0

let k_net_send = 1

let k_wl_send = 2

let k_wl_reply = 3

let k_wl_recv = 4

let k_write_req = 5

let k_read_req = 6

let k_ae = 7

let k_ae_resp = 8

let k_vote = 9

let k_read_index = 10

let k_snapshot = 11

let k_other = 12

let n_kinds = Array.length kind_names

let max_depth = 64

type t = {
  mutable on : bool;
  self_s : float array; (* per kind: summed self time, seconds *)
  counts : int array; (* per kind: closed spans *)
  (* open-span stack *)
  mutable depth : int;
  stk_kind : int array;
  stk_start : float array;
  stk_child : float array;
  stk_slot : int array;
  (* retained spans *)
  capacity : int;
  mutable len : int;
  mutable overflow : int;
  b_kind : int array;
  b_track : int array;
  b_id1 : int array;
  b_id2 : int array;
  b_parent : int array;
  b_start : float array;
  b_end : float array;
  b_vt : float array;
  mutable t0 : float;
}

let create ~capacity =
  {
    on = false;
    self_s = Array.make n_kinds 0.0;
    counts = Array.make n_kinds 0;
    depth = 0;
    stk_kind = Array.make max_depth 0;
    stk_start = Array.make max_depth 0.0;
    stk_child = Array.make max_depth 0.0;
    stk_slot = Array.make max_depth (-1);
    capacity;
    len = 0;
    overflow = 0;
    b_kind = Array.make capacity 0;
    b_track = Array.make capacity 0;
    b_id1 = Array.make capacity 0;
    b_id2 = Array.make capacity 0;
    b_parent = Array.make capacity (-1);
    b_start = Array.make capacity 0.0;
    b_end = Array.make capacity 0.0;
    b_vt = Array.make capacity 0.0;
    t0 = 0.0;
  }

(* Recording is switched only between spans (depth 0), so every span is
   either wholly recorded or wholly ignored. *)
let set_recording t on =
  if t.depth <> 0 then invalid_arg "Tracer.set_recording: spans open";
  if on && t.t0 = 0.0 then t.t0 <- Unix.gettimeofday ();
  t.on <- on

let enter t ~kind ~track ~id1 ~id2 ~vt =
  if t.on then begin
    let now = Unix.gettimeofday () in
    let d = t.depth in
    t.stk_kind.(d) <- kind;
    t.stk_start.(d) <- now;
    t.stk_child.(d) <- 0.0;
    if t.len < t.capacity then begin
      let slot = t.len in
      t.len <- slot + 1;
      t.b_kind.(slot) <- kind;
      t.b_track.(slot) <- track;
      t.b_id1.(slot) <- id1;
      t.b_id2.(slot) <- id2;
      t.b_parent.(slot) <- (if d > 0 then t.stk_slot.(d - 1) else -1);
      t.b_start.(slot) <- now;
      t.b_end.(slot) <- now;
      t.b_vt.(slot) <- vt;
      t.stk_slot.(d) <- slot
    end
    else begin
      t.overflow <- t.overflow + 1;
      t.stk_slot.(d) <- -1
    end;
    t.depth <- d + 1
  end

let leave t =
  if t.on then begin
    let now = Unix.gettimeofday () in
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = now -. t.stk_start.(d) in
    let k = t.stk_kind.(d) in
    t.self_s.(k) <- t.self_s.(k) +. (dur -. t.stk_child.(d));
    t.counts.(k) <- t.counts.(k) + 1;
    if d > 0 then t.stk_child.(d - 1) <- t.stk_child.(d - 1) +. dur;
    let slot = t.stk_slot.(d) in
    if slot >= 0 then t.b_end.(slot) <- now
  end

let self_s t kind = t.self_s.(kind)

let count t kind = t.counts.(kind)

let spans t = t.len + t.overflow

let retained t = t.len

(* Chrome trace-event JSON: one track (tid) per node, complete ("X")
   events in real microseconds since recording began.  Each event
   carries its buffer index, its parent's index, its identifier (OpId
   term.index for Raft traffic, client.request for client traffic) and
   the virtual time at which it started. *)
let write_chrome t ~path ~tracks =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  Array.iteri
    (fun tid name ->
      sep ();
      Printf.fprintf oc
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}"
        tid name)
    tracks;
  for i = 0 to t.len - 1 do
    sep ();
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"span\":%d,\"parent\":%d,\"id\":\"%d.%d\",\"vt_us\":%.1f}}"
      kind_names.(t.b_kind.(i))
      t.b_track.(i)
      ((t.b_start.(i) -. t.t0) *. 1e6)
      ((t.b_end.(i) -. t.b_start.(i)) *. 1e6)
      i t.b_parent.(i) t.b_id1.(i) t.b_id2.(i) t.b_vt.(i)
  done;
  Printf.fprintf oc "\n],\"otherData\":{\"spans_total\":%d,\"spans_retained\":%d}}\n"
    (spans t) t.len;
  close_out oc
