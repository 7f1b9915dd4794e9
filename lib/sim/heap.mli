(** Array-backed 4-ary min-heap keyed by (key, seq).

    The sequence number breaks ties so same-instant events pop in push
    order, keeping simulation runs deterministic.  Since (key, seq) is a
    total order, the pop sequence depends only on what was pushed, not
    on the heap's shape.  Keys, sequence numbers and values live in
    parallel flat arrays, so the hot push/pop cycle allocates nothing on
    steady state. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:float -> seq:int -> 'a -> unit

(** Smallest key currently in the heap.  Precondition: non-empty. *)
val min_key : 'a t -> float

(** Remove and return the value with the smallest (key, seq).
    Precondition: non-empty. *)
val pop_min : 'a t -> 'a
