(** Consistency levels for the tiered read path. *)

type t =
  | Linearizable
      (** reflects every write acknowledged before the read was issued
          (ReadIndex round or leader-lease fast path) *)
  | Read_your_writes of Binlog.Gtid.t option
      (** reflects the session's own last acknowledged write; [None] =
          no writes yet, served like {!Eventual} *)
  | Bounded_staleness of float
      (** served locally when the replica proves its engine fresh within
          the bound (virtual µs); else rejected with a retry hint *)
  | Eventual  (** whatever the local engine holds right now *)

val to_string : t -> string

(** Stable per-tier metric-name segment ("linearizable", "ryw",
    "bounded", "eventual"). *)
val label : t -> string

(** Wire size of the level descriptor inside a read request. *)
val wire_size : t -> int
