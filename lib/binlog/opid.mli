(** Raft OpId: the (term, index) pair MyRaft stamps on every transaction
    in addition to its GTID (§3). *)

type t = { term : int; index : int }

val make : term:int -> index:int -> t

(** The sentinel that precedes any real entry: term 0, index 0. *)
val zero : t

val term : t -> int

val index : t -> int

(** Order by term, then index. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Raft's log up-to-date comparison: higher term wins, then higher
    index. *)
val at_least_as_up_to_date_as : t -> t -> bool

(** "term.index" *)
val to_string : t -> string
