(** The MySQL replication command surface under MyRaft (§3): SHOW
    BINARY LOGS / MASTER STATUS / REPLICA STATUS, FLUSH and PURGE keep
    working; CHANGE MASTER TO and RESET are disallowed because Raft owns
    replication. *)

type result =
  | Rows of { header : string list; rows : string list list }
  | Ok_affected of string
  | Disallowed of string

val render : result -> string

val show_binary_logs : Server.t -> result

val show_master_status : Server.t -> result

val show_replica_status : Server.t -> result

val flush_binary_logs : Server.t -> result

val change_master_to : Server.t -> result

val reset_master : Server.t -> result

val reset_replication : Server.t -> result
