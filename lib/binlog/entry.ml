(* A Raft log entry as stored in the binlog.

   One entry = one replicated unit: a whole transaction (its GTID plus its
   row events), a leader-assertion no-op, a membership change, or a
   replicated rotate marker.  Raft stamps the OpId; the checksum is
   computed at that moment (§3.4) so corruption can be detected when the
   log abstraction later re-reads the entry from disk. *)

type payload =
  | Transaction of { gtid : Gtid.t; events : Event.t list }
  | Noop
  | Config_change of { description : string; encoded : string }
  | Rotate_marker of { next_file : string }

(* WRITESET dependency interval stamped into the Gtid_event header at
   flush time (§ Parallel apply): a replica may execute this transaction
   concurrently with anything whose index is > [last_committed].  Kept
   outside the payload checksum — in the real binlog these live in the
   42-byte Gtid_event whose size we already account for, and they are
   header metadata stamped by the primary, not client payload.  Held as
   two immediate fields; [last_committed = -1] marks an entry not (yet)
   stamped. *)

(* The payload is held once, structured: the checksum is folded straight
   from its fields, so no wire-form copy lives beside it.  The CRC is kept
   as an immediate (its 32 bits fit an OCaml int) rather than a boxed
   [int32]. *)
type t = {
  opid : Opid.t;
  payload : payload;
  checksum : int;
  size : int;
  mutable last_committed : int;
  mutable sequence_number : int;
}

(* ----- payload checksum -----

   CRC-32 over a canonical byte stream of the payload's fields, streamed
   through [Checksum] without building it: one tag per payload and event
   constructor, a length before every string and list, every field (both
   32-bit halves of an Xid).  Tags and lengths make the stream
   unambiguous, so two payloads that differ in any field feed different
   bytes. *)

module C = Checksum

let feed_str st s = C.feed_string (C.feed_int st (String.length s)) s

let feed_gtid st g = C.feed_int (feed_str st (Gtid.source g)) (Gtid.gno g)

let feed_row_op st = function
  | Event.Insert { key; value } -> feed_str (feed_str (C.feed_int st 1) key) value
  | Event.Update { key; before; after } ->
    feed_str (feed_str (feed_str (C.feed_int st 2) key) before) after
  | Event.Delete { key; before } -> feed_str (feed_str (C.feed_int st 3) key) before

let feed_event st e =
  match Event.body e with
  | Event.Format_description -> C.feed_int st 1
  | Event.Previous_gtids set -> feed_str (C.feed_int st 2) (Gtid_set.to_string set)
  | Event.Gtid_event g -> feed_gtid (C.feed_int st 3) g
  | Event.Table_map { table } -> feed_str (C.feed_int st 4) table
  | Event.Write_rows { table; ops } ->
    let st = C.feed_int (feed_str (C.feed_int st 5) table) (List.length ops) in
    List.fold_left feed_row_op st ops
  | Event.Query { sql } -> feed_str (C.feed_int st 6) sql
  | Event.Xid { xid } ->
    let lo = Int64.to_int (Int64.logand xid 0xFFFF_FFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical xid 32) in
    C.feed_int (C.feed_int (C.feed_int st 7) lo) hi
  | Event.Rotate { next_file } -> feed_str (C.feed_int st 8) next_file

let digest payload =
  let st = C.init in
  let st =
    match payload with
    | Transaction { gtid; events } ->
      let st = C.feed_int (feed_gtid (C.feed_int st 1) gtid) (List.length events) in
      List.fold_left feed_event st events
    | Noop -> C.feed_int st 2
    | Config_change { description; encoded } ->
      feed_str (feed_str (C.feed_int st 3) description) encoded
    | Rotate_marker { next_file } -> feed_str (C.feed_int st 4) next_file
  in
  C.finalize st

let payload_size payload =
  match payload with
  | Transaction { events; _ } ->
    List.fold_left (fun acc e -> acc + Event.size e) 0 events
  | Noop -> 31
  | Config_change { encoded; _ } -> 40 + String.length encoded
  | Rotate_marker { next_file } -> 27 + String.length next_file

let make ~opid payload =
  {
    opid;
    payload;
    checksum = digest payload;
    size = payload_size payload + 16 (* opid + checksum framing *);
    last_committed = -1;
    sequence_number = 0;
  }

let opid t = t.opid

let term t = Opid.term t.opid

let index t = Opid.index t.opid

let payload t = t.payload

let size t = t.size

let checksum t = Int32.of_int t.checksum

let verify t = digest t.payload = t.checksum

let last_committed t = t.last_committed

let sequence_number t = t.sequence_number

let set_deps t ~last_committed ~sequence_number =
  t.last_committed <- last_committed;
  t.sequence_number <- sequence_number

let gtid t = match t.payload with Transaction { gtid; _ } -> Some gtid | _ -> None

let is_transaction t = match t.payload with Transaction _ -> true | _ -> false

(* Re-stamp an existing payload with a new OpId: used when a leader
   replicates a client transaction whose payload was built before Raft
   assigned the slot.  The checksum covers the payload only, so it and
   the payload itself are shared, not recomputed or copied. *)
let with_opid t ~opid = { t with opid }

(* ----- fault injection (chaos) ----- *)

type corruption = Header | Body

(* A bit-rotted copy of [t], as re-read from a disk whose platter flipped
   bits under the entry.  [Header] flips a bit inside the stored checksum
   field; [Body] mutates the payload while keeping the now-stale checksum.
   Either way [verify] must fail on the result.  The mutated payload stays
   structurally well-formed: the point is silent content damage only the
   CRC can catch.  Entries whose payload has no distinguishable body
   bytes fall back to the header flavour. *)
let corrupt t flavor =
  let flip_header () = { t with checksum = t.checksum lxor 0x00010000 } in
  match flavor with
  | Header -> flip_header ()
  | Body ->
    let mangled =
      match t.payload with
      | Transaction { gtid; events = _ :: rest } ->
        (* an event vanishes: acked row changes silently gone *)
        Some (Transaction { gtid; events = rest })
      | Transaction { events = []; _ } | Noop -> None
      | Config_change c ->
        Some (Config_change { c with description = c.description ^ "\x00" })
      | Rotate_marker { next_file } -> Some (Rotate_marker { next_file = next_file ^ "\x00" })
    in
    (match mangled with
    | Some payload -> { t with payload }
    | None -> flip_header ())

let describe t =
  let body =
    match t.payload with
    | Transaction { gtid; events } ->
      Printf.sprintf "txn %s (%d events)" (Gtid.to_string gtid) (List.length events)
    | Noop -> "noop"
    | Config_change { description; _ } -> "config: " ^ description
    | Rotate_marker { next_file } -> "rotate -> " ^ next_file
  in
  Printf.sprintf "[%s] %s" (Opid.to_string t.opid) body
