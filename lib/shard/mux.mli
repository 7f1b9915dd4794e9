(** The multiplexing transport of the multi-Raft deployment: one
    [Sim.Network] carrying packets, where a packet batches every
    group-tagged frame that accumulated towards the same (src, dst)
    physical link within one coalescing window.  Co-located groups thus
    share network messages, and one group's heartbeat carries liveness
    for all of them (the receive path fires a per-node liveness tap
    before demultiplexing, with the groups the sender led when the
    packet departed). *)

type frame = { fr_group : int; fr_payload : Myraft.Wire.t }

(** [leads] is the header's leadership claim: the groups the sending
    node led when the packet departed. *)
type packet = { leads : int list; frames : frame list }

(** Fixed per-packet / per-frame framing overhead charged on top of the
    payload wire sizes, so coalescing shows up in net.bytes as
    amortization. *)
val packet_header_bytes : int

val frame_tag_bytes : int

val packet_size : frame list -> int

type t

(** [window] is the coalescing window: the first frame towards an idle
    (src, dst) pair departs after [window]; everything pushed until then
    rides the same packet. *)
val create :
  engine:Sim.Engine.t ->
  topology:Sim.Topology.t ->
  ?latency:Sim.Latency.t ->
  window:float ->
  unit ->
  t

(** The underlying packet network (fault injection, stats). *)
val network : t -> packet Sim.Network.t

val window : t -> float

(** Idempotently add a physical node and install its demux handler. *)
val add_node : t -> id:string -> region:string -> unit

(** Attach group [group]'s handler for frames delivered to [node]. *)
val register : t -> group:int -> string -> (src:string -> Myraft.Wire.t -> unit) -> unit

(** Install [node]'s liveness tap: fired once per delivered packet with
    the sending node and its header's leadership claim, before
    demultiplexing — the hook that resets every co-located follower's
    failover clock off one beat. *)
val set_liveness_tap : t -> string -> (from:string -> leads:int list -> unit) -> unit

(** Install the source of the leadership claim: [leads_of node] is the
    groups [node] leads now, read when a packet departs.  Defaults to
    none. *)
val set_leadership : t -> (string -> int list) -> unit

(** Queue one frame; departs with the (src, dst) pair's next flush. *)
val send : t -> group:int -> src:string -> dst:string -> Myraft.Wire.t -> unit

(** Heartbeat-suppression carrier check: did any {e other} group push a
    frame onto (src, dst) within [within]?  The asking group's own beats
    don't count, so a 1-group deployment never suppresses. *)
val carried_recently :
  t -> group:int -> src:string -> dst:string -> within:float -> bool

(** Drain the coalescing buffers immediately (deterministic endpoints in
    tests). *)
val flush_now : t -> unit

(** {2 Counters} *)

val packets_sent : t -> int

val frames_sent : t -> int

val bytes_sent : t -> int

val taps_fired : t -> int

val frames_per_packet : t -> Stats.Histogram.t

(** shard.mux.* rows plus the packet network's net.* rows. *)
val metrics : t -> Obs.Metrics.t
