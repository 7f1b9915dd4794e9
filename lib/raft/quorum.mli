(** Quorum evaluation, including FlexiRaft's flexible commit quorums
    (§4.1).

    - [Majority]: classic Raft — majority of all voters for data commit
      and elections.
    - [Single_region_dynamic]: FlexiRaft's production mode — data commit
      needs a majority of the voters in the {e leader's} region; an
      election must intersect every possible past data quorum.
    - [Region_majorities]: a majority of regions, each by an in-region
      majority (grid-style), for consistency-over-latency applications.

    All functions are pure; the node supplies the vote/ack sets. *)

type mode = Majority | Single_region_dynamic | Region_majorities

val mode_to_string : mode -> string

(** Has the entry been acknowledged by enough voters, given the leader's
    region? *)
val data_quorum_satisfied :
  mode -> Types.config -> leader_region:string -> acks:Types.node_id list -> bool

(** {2 Order statistics}

    A data quorum of k voters acknowledges exactly the group's k-th
    largest ack, so for acks that are monotone in a threshold (a match
    index, an acknowledged send time) the largest threshold a data quorum
    reaches is read off the sorted voter acks — per region, then across
    regions, in [Region_majorities] mode — instead of one
    {!data_quorum_satisfied} check per candidate threshold. *)

(** The leader's commit point: the highest index a data quorum holds,
    counting the leader ([self]) at [self_durable] and each peer at its
    [match_index] ([None]: no ack).  [None] when no quorum holds any
    index. *)
val acked_index :
  mode ->
  Types.config ->
  leader_region:string ->
  self:Types.node_id ->
  self_durable:int ->
  match_index:(Types.node_id -> int option) ->
  int option

(** The leader-lease threshold over (local, global) send stamps: the
    latest local stamp [T] among [now] and the peers' acknowledged
    stamps such that the leader plus every peer with a stamp at or
    after [T] form a data quorum, paired with the latest global stamp
    among the candidates at [T].  [stamp id] is a peer's local stamp
    ([neg_infinity] if none); [iter_stamps f] applies [f local global]
    to every peer's stamp. *)
val lease_threshold :
  mode ->
  Types.config ->
  leader_region:string ->
  self:Types.node_id ->
  now:float ->
  now_global:float ->
  stamp:(Types.node_id -> float) ->
  iter_stamps:((float -> float -> unit) -> unit) ->
  (float * float) option

val election_quorum_satisfied :
  mode ->
  Types.config ->
  candidate_region:string ->
  last_leader:(int * string) option ->
  vote_constraint:(int * string) option ->
  votes:Types.node_id list ->
  bool

(** Smallest number of voters whose acknowledgement can commit an
    entry. *)
val min_data_quorum_size : mode -> Types.config -> leader_region:string -> int
