(** Keyspace partitioning: hashes (table, key) to one of M Raft groups
    with seedless FNV-1a, so the mapping is stable across processes and
    runs.  Also memoizes each group's last-known leader so clients hit
    the right node first (NotLeader rejections invalidate the entry). *)

type t

val create : groups:int -> unit -> t

(** The raw 64-bit FNV-1a digest of (table, 0x00, key bytes); exposed
    for the stability unit test. *)
val hash : table:string -> key:string -> int64

(** [hash] folded to a bucket in [0, groups) via unsigned modulo. *)
val group_of : t -> table:string -> key:string -> int

(** {2 Leader redirect cache} *)

val cached_leader : t -> group:int -> string option

val note_leader : t -> group:int -> node:string -> unit

val invalidate_leader : t -> group:int -> unit
