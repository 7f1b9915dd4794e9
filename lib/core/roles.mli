(** Table 1: roles in MyRaft compared to the prior setup. *)

type row = {
  myraft_role : string;
  entity : string;
  database_role : string;
  in_region_logtailers : string;
  prior_setup_role : string;
  has_database : string;
  serves_reads : string;
  serves_writes : string;
}

(** The Table-1 role a running member maps to. *)
val classify : Raft.Types.member -> is_leader:bool -> string

(** Render the table. *)
val render : unit -> string
