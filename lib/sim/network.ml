(* Simulated message network.

   Typed over the protocol's message type.  Delivery incurs a one-way
   latency drawn from the latency model; messages to crashed nodes or
   across a partition are silently dropped (the transports the paper's
   systems run over are not reliable either — Raft tolerates loss).

   The network also keeps per-(src,dst) and per-region-pair byte counters,
   which the proxying evaluation (§4.2.2) reads to compare cross-region
   bandwidth with and without PROXY_OP forwarding. *)

type stats = {
  mutable messages : int;
  mutable bytes : int;
}

(* Per-node / per-link message fault model (the lossy-link conditions of
   "From Consensus to Chaos"): each delivery rolls independently against
   every spec that covers it — the link itself plus both endpoints. *)
type fault_spec = {
  drop : float; (* P(message silently lost) *)
  duplicate : float; (* P(a second copy is delivered) *)
  reorder : float; (* P(an extra random delay shuffles this message) *)
  reorder_delay : float; (* max extra delay for reordered/duplicated copies, µs *)
  extra_latency : float; (* deterministic added latency — a transient spike, µs *)
}

let no_faults =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; reorder_delay = 0.0; extra_latency = 0.0 }

(* String-keyed tables specialised to [String.equal]/[String.hash]
   instead of polymorphic compare and hashing. *)
module Tbl = Hashtbl.Make (String)

(* Per-node state: reachability, the node's fault spec, its receive
   handler and its NIC.  Created on first use (a send or a setter) and
   never removed, so it also holds the node's out-links. *)
type 'msg node = {
  mutable down : bool;
  mutable isolated : bool;
  mutable node_spec : fault_spec option;
  mutable handler : (src:Topology.node_id -> 'msg -> unit) option;
  (* Optional egress capacity (bytes/µs): when set, sends from this node
     serialize through its NIC — the leader-hotspot effect proxying
     exists to relieve (§4.2). *)
  mutable egress_rate : float option;
  mutable egress_free_at : float;
  mutable egress_queue_delay : float;
  links : 'msg link Tbl.t; (* out-links by destination *)
}

(* Per-directed-link state, created on the link's first send or setter:
   everything a message needs on send and on delivery, reached with one
   lookup.  Both endpoints must already be in the topology. *)
and 'msg link = {
  src : Topology.node_id;
  dst : Topology.node_id;
  src_node : 'msg node;
  dst_node : 'msg node;
  src_region : Topology.region;
  dst_region : Topology.region;
  region_pair : Topology.region * Topology.region; (* unordered, for cuts *)
  link_stats : stats;
  region_stats : stats; (* shared by every link of the region pair *)
  mutable fixed_latency : float option;
  (* Links carry ordered streams (TCP): a message never overtakes an
     earlier one on the same directed link, however the jittered latency
     samples land.  The latest scheduled in-order delivery; only explicit
     reorder/duplicate faults may escape the stream. *)
  mutable fifo_at : float;
  mutable link_spec : fault_spec option;
}

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  latency : Latency.t;
  rng : Rng.t;
  nodes : 'msg node Tbl.t;
  (* Partitions are sets of unordered region pairs plus isolated nodes. *)
  cut_region_pairs : (Topology.region * Topology.region, unit) Hashtbl.t;
  region_stats : (Topology.region * Topology.region, stats) Hashtbl.t;
  (* Split lazily on first fault installation so fault-free runs keep the
     exact RNG streams they had before the fault model existed, while
     chaos runs stay fully determined by the engine seed. *)
  mutable fault_rng : Rng.t option;
  mutable dropped : int;
  mutable fault_dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
}

let create engine topology ?(latency = Latency.default) () =
  {
    engine;
    topology;
    latency;
    rng = Rng.split (Engine.rng engine);
    nodes = Tbl.create 32;
    cut_region_pairs = Hashtbl.create 4;
    region_stats = Hashtbl.create 16;
    fault_rng = None;
    dropped = 0;
    fault_dropped = 0;
    duplicated = 0;
    reordered = 0;
  }

let node t id =
  match Tbl.find_opt t.nodes id with
  | Some n -> n
  | None ->
    let n =
      {
        down = false;
        isolated = false;
        node_spec = None;
        handler = None;
        egress_rate = None;
        egress_free_at = neg_infinity;
        egress_queue_delay = 0.0;
        links = Tbl.create 8;
      }
    in
    Tbl.replace t.nodes id n;
    n

let find_link t ~src ~dst =
  match Tbl.find_opt t.nodes src with
  | Some n -> Tbl.find_opt n.links dst
  | None -> None

let ordered_pair a b = if a <= b then (a, b) else (b, a)

let stats_for table key =
  match Hashtbl.find_opt table key with
  | Some st -> st
  | None ->
    let st = { messages = 0; bytes = 0 } in
    Hashtbl.replace table key st;
    st

let link t ~src ~dst =
  let src_node = node t src in
  match Tbl.find_opt src_node.links dst with
  | Some l -> l
  | None ->
    let src_region = Topology.region_of t.topology src in
    let dst_region = Topology.region_of t.topology dst in
    let l =
      {
        src;
        dst;
        src_node;
        dst_node = node t dst;
        src_region;
        dst_region;
        region_pair = ordered_pair src_region dst_region;
        link_stats = { messages = 0; bytes = 0 };
        region_stats = stats_for t.region_stats (src_region, dst_region);
        fixed_latency = None;
        fifo_at = 0.0;
        link_spec = None;
      }
    in
    Tbl.replace src_node.links dst l;
    l

(* Fix the one-way latency between two nodes (both directions), e.g. a
   client colocated with the primary, or pinned at 10 ms from it. *)
let set_link_latency t ~a ~b ~latency =
  (link t ~src:a ~dst:b).fixed_latency <- Some latency;
  (link t ~src:b ~dst:a).fixed_latency <- Some latency

(* Cap a node's egress bandwidth; messages it sends serialize through
   the NIC and queue behind each other. *)
let set_egress_rate t id ~bytes_per_s =
  (node t id).egress_rate <- Some (bytes_per_s /. 1_000_000.0 (* per µs *))

(* Cumulative time messages spent queued behind [node]'s NIC. *)
let egress_queue_delay t id =
  match Tbl.find_opt t.nodes id with Some n -> n.egress_queue_delay | None -> 0.0

(* NIC serialization + queueing delay for sending [size] bytes now. *)
let egress_delay t src ~size =
  match src.egress_rate with
  | None -> 0.0
  | Some rate ->
    let now = Engine.now t.engine in
    let start = max now src.egress_free_at in
    let serialization = float_of_int size /. rate in
    src.egress_free_at <- start +. serialization;
    let queued = start -. now in
    src.egress_queue_delay <- src.egress_queue_delay +. queued;
    queued +. serialization

let topology t = t.topology

let register t id handler = (node t id).handler <- Some handler

let set_down t id = (node t id).down <- true

let set_up t id =
  match Tbl.find_opt t.nodes id with Some n -> n.down <- false | None -> ()

let cut_regions t r1 r2 = Hashtbl.replace t.cut_region_pairs (ordered_pair r1 r2) ()

let heal_regions t r1 r2 = Hashtbl.remove t.cut_region_pairs (ordered_pair r1 r2)

let isolate_node t id = (node t id).isolated <- true

let heal_node t id =
  match Tbl.find_opt t.nodes id with Some n -> n.isolated <- false | None -> ()

(* ----- message fault model ----- *)

let fault_rng t =
  match t.fault_rng with
  | Some rng -> rng
  | None ->
    let rng = Rng.split t.rng in
    t.fault_rng <- Some rng;
    rng

let set_node_faults t id spec =
  ignore (fault_rng t);
  (node t id).node_spec <- (if spec = no_faults then None else Some spec)

let clear_node_faults t id =
  match Tbl.find_opt t.nodes id with Some n -> n.node_spec <- None | None -> ()

let node_faults t id =
  match Tbl.find_opt t.nodes id with
  | Some { node_spec = Some spec; _ } -> spec
  | _ -> no_faults

let set_link_faults t ~src ~dst spec =
  ignore (fault_rng t);
  (link t ~src ~dst).link_spec <- (if spec = no_faults then None else Some spec)

let clear_link_faults t ~src ~dst =
  Option.iter (fun l -> l.link_spec <- None) (find_link t ~src ~dst)

let faulted_nodes t =
  Tbl.fold (fun id n acc -> if n.node_spec <> None then id :: acc else acc) t.nodes []

let heal_all t =
  Hashtbl.reset t.cut_region_pairs;
  Tbl.iter
    (fun _ n ->
      n.isolated <- false;
      n.node_spec <- None;
      Tbl.iter (fun _ l -> l.link_spec <- None) n.links)
    t.nodes

let partitioned t l =
  l.src_node.isolated || l.dst_node.isolated
  || Hashtbl.length t.cut_region_pairs > 0
     && Hashtbl.mem t.cut_region_pairs l.region_pair

let bump st ~bytes =
  st.messages <- st.messages + 1;
  st.bytes <- st.bytes + bytes

let schedule_delivery t l ~delay msg =
  ignore
    (Engine.schedule t.engine ~delay (fun () ->
         if l.dst_node.down || partitioned t l then t.dropped <- t.dropped + 1
         else
           match l.dst_node.handler with
           | Some handler -> handler ~src:l.src msg
           | None -> t.dropped <- t.dropped + 1))

let one_way_latency t l =
  match l.fixed_latency with
  | Some fixed -> fixed
  | None ->
    Latency.one_way t.latency ~src_region:l.src_region ~dst_region:l.dst_region t.rng

(* The fault specs covering a delivery: destination node, source node,
   then the directed link.  Each one rolls for loss, reordering and
   duplication in that order; with none installed a send draws no fault
   RNG and the stream slot is the only clamp. *)
let specs_for l =
  let add acc = function Some s -> s :: acc | None -> acc in
  add (add (add [] l.link_spec) l.src_node.node_spec) l.dst_node.node_spec

(* Send a message.  [size] is the wire size in bytes and is accounted even
   for messages that are later dropped at delivery (the sender spent the
   bandwidth either way). *)
let send t ~src ~dst ~size msg =
  let l = link t ~src ~dst in
  bump l.link_stats ~bytes:size;
  bump l.region_stats ~bytes:size;
  if l.src_node.down || partitioned t l then t.dropped <- t.dropped + 1
  else begin
    let specs = specs_for l in
    let lost =
      List.exists (fun s -> s.drop > 0.0 && Rng.float (fault_rng t) < s.drop) specs
    in
    if lost then begin
      t.dropped <- t.dropped + 1;
      t.fault_dropped <- t.fault_dropped + 1
    end
    else begin
      let base_delay =
        egress_delay t l.src_node ~size
        +. one_way_latency t l
        +. List.fold_left (fun acc s -> acc +. s.extra_latency) 0.0 specs
      in
      (* FIFO stream semantics: clamp the delivery behind the link's
         latest in-order delivery, so jittered latency samples cannot
         reorder a healthy link (pipelined AppendEntries depend on it,
         just as real implementations depend on TCP ordering). *)
      let now = Engine.now t.engine in
      let fifo_at = max (now +. base_delay) l.fifo_at in
      let reorder_extra =
        List.fold_left
          (fun d s ->
            if s.reorder > 0.0 && Rng.float (fault_rng t) < s.reorder then begin
              t.reordered <- t.reordered + 1;
              d +. Rng.uniform (fault_rng t) ~lo:0.0 ~hi:s.reorder_delay
            end
            else d)
          0.0 specs
      in
      if reorder_extra > 0.0 then
        (* The reorder fault ejects this message from the stream: it is
           delayed past its slot and deliberately does NOT hold the fifo
           clock back, so later messages overtake it. *)
        schedule_delivery t l ~delay:(fifo_at -. now +. reorder_extra) msg
      else begin
        l.fifo_at <- fifo_at;
        schedule_delivery t l ~delay:(fifo_at -. now) msg
      end;
      (* Duplication: a second copy arrives after an extra random delay,
         outside the stream, so the two copies may arrive out of order. *)
      List.iter
        (fun s ->
          if s.duplicate > 0.0 && Rng.float (fault_rng t) < s.duplicate then begin
            t.duplicated <- t.duplicated + 1;
            let extra = Rng.uniform (fault_rng t) ~lo:0.0 ~hi:(max s.reorder_delay 1.0) in
            schedule_delivery t l ~delay:(fifo_at -. now +. extra) msg
          end)
        specs
    end
  end

let dropped t = t.dropped

let fault_dropped t = t.fault_dropped

let duplicated t = t.duplicated

let reordered t = t.reordered

let link_bytes t ~src ~dst =
  match find_link t ~src ~dst with Some l -> l.link_stats.bytes | None -> 0

(* Total bytes that crossed a region boundary, in either direction. *)
let cross_region_bytes t =
  Hashtbl.fold
    (fun (rs, rd) st acc -> if rs <> rd then acc + st.bytes else acc)
    t.region_stats 0

let total_bytes t = Hashtbl.fold (fun _ st acc -> acc + st.bytes) t.region_stats 0

let total_messages t = Hashtbl.fold (fun _ st acc -> acc + st.messages) t.region_stats 0

(* Per-directed-link (src, dst, messages, bytes) rows, sorted, for
   metric exports (Obs cannot be depended on from sim — the caller
   builds its registry from these).  Counters live in records that
   outlast [reset_stats], so a row exists only for a link that carried a
   message since. *)
let link_stat_rows t =
  Tbl.fold
    (fun _ n acc ->
      Tbl.fold
        (fun _ l acc ->
          let st = l.link_stats in
          if st.messages > 0 then (l.src, l.dst, st.messages, st.bytes) :: acc else acc)
        n.links acc)
    t.nodes []
  |> List.sort compare

let region_stat_rows t =
  Hashtbl.fold
    (fun (rs, rd) st acc ->
      if st.messages > 0 then (rs, rd, st.messages, st.bytes) :: acc else acc)
    t.region_stats []
  |> List.sort compare

let reset_stats t =
  let zero st =
    st.messages <- 0;
    st.bytes <- 0
  in
  Tbl.iter (fun _ n -> Tbl.iter (fun _ l -> zero l.link_stats) n.links) t.nodes;
  Hashtbl.iter (fun _ st -> zero st) t.region_stats;
  t.dropped <- 0;
  t.fault_dropped <- 0;
  t.duplicated <- 0;
  t.reordered <- 0
