(** Client-side availability probe for a MyRaft replicaset: repeatedly
    writes through service discovery; downtime is the largest gap
    between consecutive successful commits (Table 2's metric). *)

type t

val start :
  ?region:string ->
  ?probe_interval:float ->
  ?write_timeout:float ->
  ?client_latency:float ->
  Cluster.t ->
  client_id:string ->
  t

val stop : t -> unit

val successes : t -> int

(** Largest success gap in the window, microseconds. *)
val max_downtime : t -> start_time:float -> end_time:float -> float
