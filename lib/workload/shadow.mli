(** MyShadow (§5.1): record a production-representative workload trace
    and replay it — identically — against any backend, which is how the
    §6.1 A/B comparison is run (nothing but the replication stack differs
    between the two sides). *)

type op = {
  at : float;  (** offset from trace start, microseconds *)
  table : string;
  key : string;
  value_size : int;
}

type trace

val length : trace -> int

val ops : trace -> op list

val total_bytes : trace -> int

(** Synthesize a deterministic production-like trace: Poisson arrivals,
    skewed key popularity, lognormal payload sizes. *)
val record :
  ?table:string ->
  ?key_space:int ->
  ?value_mu:float ->
  ?value_sigma:float ->
  seed:int ->
  rate_per_s:float ->
  duration:float ->
  unit ->
  trace

(** Replay each op at its recorded offset through a generator client;
    read the returned generator's stats when the window closes. *)
val replay :
  ?client_id:string ->
  ?region:string ->
  ?client_latency:float ->
  trace ->
  backend:Backend.t ->
  Generator.t
