(* Consistency levels for the tiered read path (Table 1: leader,
   follower and learner all serve reads; replicas may lag — the level
   says how much lag, if any, a client tolerates). *)

type t =
  | Linearizable
      (* reflects every write acknowledged before the read was issued;
         ReadIndex confirmation round or leader-lease fast path *)
  | Read_your_writes of Binlog.Gtid.t option
      (* reflects the session's own last acknowledged write (the
         carried GTID); None = session has no writes yet *)
  | Bounded_staleness of float
      (* served locally when the replica can prove its engine is fresh
         within the bound (virtual microseconds); else rejected with a
         retry hint *)
  | Eventual (* whatever the local engine holds right now *)

let to_string = function
  | Linearizable -> "linearizable"
  | Read_your_writes None -> "ryw"
  | Read_your_writes (Some gtid) -> "ryw@" ^ Binlog.Gtid.to_string gtid
  | Bounded_staleness bound -> Printf.sprintf "bounded:%.0fms" (bound /. 1000.0)
  | Eventual -> "eventual"

(* Metric-name segment: one stable label per tier (RYW tokens and
   staleness bounds don't explode the metric namespace). *)
let label = function
  | Linearizable -> "linearizable"
  | Read_your_writes _ -> "ryw"
  | Bounded_staleness _ -> "bounded"
  | Eventual -> "eventual"

(* Wire size of the level descriptor inside a read request. *)
let wire_size = function
  | Linearizable | Eventual -> 1
  | Bounded_staleness _ -> 9
  | Read_your_writes None -> 2
  | Read_your_writes (Some _) -> 14
