(* Per-operation accounting at the workload boundary.

   Every write and read a generator sends passes through the wrapped
   [Workload.Backend.t] (see Fleet), which records here when it was
   issued and how it settled.  Operations issued inside the measured
   window are the run's attempts; each ends as served (with a latency
   sample), refused by the server, or timed out (no reply within the
   generator's own timeout).  Every acknowledged GTID is kept, whenever
   it was issued, for the end-of-run durability check. *)

type refusal = Applying | Stale | Timeout | Other

let refusal_of_reason reason =
  let prefix p = String.length reason >= String.length p && String.sub reason 0 (String.length p) = p in
  if reason = "staleness bound met but engine still applying" then Applying
  else if prefix "staleness bound exceeded" then Stale
  else if reason = "read timed out" then Timeout
  else Other

(* Growable float vector. *)
type fvec = { mutable data : float array; mutable n : int }

let fvec () = { data = Array.make 1024 0.0; n = 0 }

let push v x =
  if v.n = Array.length v.data then begin
    let d = Array.make (2 * v.n) 0.0 in
    Array.blit v.data 0 d 0 v.n;
    v.data <- d
  end;
  v.data.(v.n) <- x;
  v.n <- v.n + 1

let to_array v = Array.sub v.data 0 v.n

(* Issue times by request id; [nan] marks "not issued" or "settled". *)
type issued = { mutable at : float array }

let grow iss id =
  if id >= Array.length iss.at then begin
    let a = Array.make (max (2 * Array.length iss.at) (id + 1)) Float.nan in
    Array.blit iss.at 0 a 0 (Array.length iss.at);
    iss.at <- a
  end

type client = {
  c_id : string;
  writes : issued;
  reads : issued;
  write_timeout : float;
  read_timeout : float;
}

type t = {
  engine : Sim.Engine.t;
  clients : (string, client) Hashtbl.t;
  mutable last : client option;
  mutable win_start : float;
  mutable win_end : float;
  mutable acked : Binlog.Gtid.t list;
  commit_lat : fvec; (* virtual us, in-window writes served *)
  read_lat : fvec;
  mutable w_attempted : int;
  mutable w_ok : int;
  mutable w_rejected : int;
  mutable r_attempted : int;
  mutable r_ok : int;
  refused : int array; (* indexed by refusal *)
}

let create engine =
  {
    engine;
    clients = Hashtbl.create 8;
    last = None;
    win_start = infinity;
    win_end = infinity;
    acked = [];
    commit_lat = fvec ();
    read_lat = fvec ();
    w_attempted = 0;
    w_ok = 0;
    w_rejected = 0;
    r_attempted = 0;
    r_ok = 0;
    refused = Array.make 4 0;
  }

let refusal_index = function Applying -> 0 | Stale -> 1 | Timeout -> 2 | Other -> 3

let refuse t r = t.refused.(refusal_index r) <- t.refused.(refusal_index r) + 1

let refused t r = t.refused.(refusal_index r)

let add_client t ~id ~write_timeout ~read_timeout =
  let c =
    {
      c_id = id;
      writes = { at = Array.make 1024 Float.nan };
      reads = { at = Array.make 1024 Float.nan };
      write_timeout;
      read_timeout;
    }
  in
  Hashtbl.replace t.clients id c

(* Generators pass their own id string on every call, so a physical
   equality check on the last client found skips the table probe. *)
let client t id =
  match t.last with
  | Some c when c.c_id == id -> c
  | _ ->
    let c =
      match Hashtbl.find_opt t.clients id with
      | Some c -> c
      | None -> invalid_arg ("Ledger.client: unregistered " ^ id)
    in
    t.last <- Some c;
    c

let in_window t at = at >= t.win_start && at < t.win_end

let open_window t =
  t.win_start <- Sim.Engine.now t.engine;
  t.win_end <- infinity

let close_window t = t.win_end <- Sim.Engine.now t.engine

let write_sent t c ~write_id ~sent =
  let now = Sim.Engine.now t.engine in
  let counted = in_window t now in
  if counted then t.w_attempted <- t.w_attempted + 1;
  if sent then begin
    grow c.writes write_id;
    c.writes.at.(write_id) <- now
  end
  else if counted then t.w_rejected <- t.w_rejected + 1

let write_reply t c ~write_id ~ok ~gtid =
  (match gtid with Some g when ok -> t.acked <- g :: t.acked | _ -> ());
  if write_id < Array.length c.writes.at then begin
    let at = c.writes.at.(write_id) in
    let lat = Sim.Engine.now t.engine -. at in
    (* a reply after the generator's timeout stays pending: the client
       already counted it as timed out *)
    if (not (Float.is_nan at)) && lat <= c.write_timeout then begin
      c.writes.at.(write_id) <- Float.nan;
      if in_window t at then
        if ok then begin
          t.w_ok <- t.w_ok + 1;
          push t.commit_lat lat
        end
        else t.w_rejected <- t.w_rejected + 1
    end
  end

let read_sent t c ~read_id ~sent =
  let now = Sim.Engine.now t.engine in
  let counted = in_window t now in
  if counted then t.r_attempted <- t.r_attempted + 1;
  if sent then begin
    grow c.reads read_id;
    c.reads.at.(read_id) <- now
  end
  else if counted then refuse t Other

let read_reply t c ~read_id ~(outcome : Workload.Backend.read_outcome) =
  if read_id < Array.length c.reads.at then begin
    let at = c.reads.at.(read_id) in
    let lat = Sim.Engine.now t.engine -. at in
    if (not (Float.is_nan at)) && lat <= c.read_timeout then begin
      c.reads.at.(read_id) <- Float.nan;
      if in_window t at then
        match outcome with
        | Workload.Backend.Read_ok _ ->
          t.r_ok <- t.r_ok + 1;
          push t.read_lat lat
        | Workload.Backend.Read_rejected { reason; _ } -> refuse t (refusal_of_reason reason)
    end
  end

(* Requests issued but neither answered nor past their timeout at this
   instant: the queue a stall leaves behind. *)
let backlog t =
  let now = Sim.Engine.now t.engine in
  let n = ref 0 in
  let scan (iss : issued) timeout =
    Array.iter (fun at -> if (not (Float.is_nan at)) && now -. at <= timeout then incr n) iss.at
  in
  Hashtbl.iter
    (fun _ c ->
      scan c.writes c.write_timeout;
      scan c.reads c.read_timeout)
    t.clients;
  !n

(* Call once, after the drain: in-window requests never answered within
   their timeout.  Reads join the [Timeout] refusals; the count of
   timed-out writes is returned. *)
let settle_timeouts t =
  let w = ref 0 in
  Hashtbl.iter
    (fun _ c ->
      Array.iter (fun at -> if (not (Float.is_nan at)) && in_window t at then incr w) c.writes.at;
      Array.iter
        (fun at -> if (not (Float.is_nan at)) && in_window t at then refuse t Timeout)
        c.reads.at)
    t.clients;
  !w
