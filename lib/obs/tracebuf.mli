(** Structured trace ring buffer correlated by Raft OpId: every event
    carries the (term, index) of the transaction it concerns, so one
    transaction can be followed flush → consensus-commit → engine-commit
    across the primary and replicas sharing the ring.  Fixed capacity;
    recording is O(1) and old events are overwritten. *)

type event = {
  ev_seq : int;  (** monotonically increasing record number *)
  ev_time : float;
  ev_node : string;
  ev_stage : string;
  ev_term : int;
  ev_index : int;
  ev_detail : string;
}

type t

val create : ?capacity:int -> unit -> t

val record :
  t ->
  time:float ->
  node:string ->
  stage:string ->
  term:int ->
  index:int ->
  ?detail:string ->
  unit ->
  unit

val capacity : t -> int

(** Events ever recorded (including overwritten ones). *)
val total : t -> int

(** Events currently retained. *)
val length : t -> int

(** Events lost to ring wraparound. *)
val dropped : t -> int

(** Retained events, oldest first. *)
val events : t -> event list

(** One transaction's retained events across stages and nodes. *)
val for_opid : t -> term:int -> index:int -> event list

val for_stage : t -> stage:string -> event list

(** Newest [last] retained events as text, oldest first. *)
val render : ?last:int -> t -> string
