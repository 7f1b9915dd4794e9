(** GTID sets: per-source disjoint inclusive intervals — the structure
    behind MySQL's "uuid:1-5:7-9" notation.

    These sets are the replica-position metadata MyRaft preserves: every
    binlog file's Previous-GTIDs header, each server's gtid_executed,
    and the adjustment made when a demoted leader's log suffix is
    truncated (§3.3). *)

type t

val empty : t

(** Add a closed gno interval.  Requires [1 <= lo <= hi]. *)
val add_interval : t -> source:string -> lo:int -> hi:int -> t

val add : t -> Gtid.t -> t

val remove : t -> Gtid.t -> t

val contains : t -> Gtid.t -> bool

val union : t -> t -> t

(** Number of GTIDs in the set. *)
val cardinal : t -> int

val subset : t -> t -> bool

val equal : t -> t -> bool

(** Largest gno present for [source], 0 if none — used to continue a gno
    sequence after promotion. *)
val max_gno : t -> source:string -> int

val sources : t -> string list

(** MySQL-style rendering, e.g. "srv1:1-5:7,srv2:3". *)
val to_string : t -> string
