(** The §A.1 binlog janitor.  Membership automation (§2.2) lives in
    [Reconfig.Healer], which executes [Reconfig.Planner] targets such as
    [Planner.replace]. *)

(** {2 Binlog rotation/purge janitor (§A.1)} *)

type janitor

(** Watch the primary's current binlog file in a monitoring loop: FLUSH
    BINARY LOGS past the size budget ([Params.max_binlog_bytes]), PURGE
    watermark-cleared files beyond [keep_files]. *)
val start_binlog_janitor : ?interval:float -> ?keep_files:int -> Myraft.Cluster.t -> janitor

val stop_janitor : janitor -> unit

val rotations : janitor -> int

val purges : janitor -> int
