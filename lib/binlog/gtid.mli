(** Global Transaction Identifier: (server source, gno), as in MySQL.
    Readable server names stand in for 128-bit uuids. *)

type t

(** Requires [gno >= 1]. *)
val make : source:string -> gno:int -> t

val source : t -> string

val gno : t -> int

val equal : t -> t -> bool

(** "source:gno" *)
val to_string : t -> string
