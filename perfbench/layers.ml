(* Per-layer figures of the traced run.

   Three sources, all read at the layer boundaries from the benchmark's
   own files: the Tracer's self times per span kind, the counters and
   histograms the program already keeps in each node's registry
   ([Myraft.Cluster.metrics_of], snapshotted at both ends of the
   measured window), and the benchmark-owned network and engine.  "Per
   op" divides by the window's served operations: committed writes plus
   served reads of the workload's generators. *)

type mark = {
  nodes : (string * Obs.Metrics.snapshot) list;
  events : int;
  msgs : int;
  bytes : int;
  cross : int;
  dropped : int;
  rolled_back : int;
}

let mark (f : Fleet.t) =
  let c = f.cluster in
  {
    nodes =
      List.filter_map
        (fun id -> Option.map (fun m -> (id, Obs.Metrics.snapshot m)) (Myraft.Cluster.metrics_of c id))
        (Myraft.Cluster.member_ids c);
    events = Sim.Engine.executed_events f.ctx.engine;
    msgs = Sim.Network.total_messages f.network;
    bytes = Sim.Network.total_bytes f.network;
    cross = Sim.Network.cross_region_bytes f.network;
    dropped = Sim.Network.dropped f.network;
    rolled_back =
      List.fold_left
        (fun acc srv -> acc + Storage.Engine.rolled_back_count (Myraft.Server.storage srv))
        0 (Myraft.Cluster.servers c);
  }

(* Summed over nodes; a registry cannot shrink, but clamp anyway so a
   node replaced mid-window cannot make a delta negative. *)
let counter ~a ~b name =
  List.fold_left
    (fun acc (id, snap) ->
      let before =
        match List.assoc_opt id a.nodes with Some s -> Obs.Metrics.counter_of s name | None -> 0
      in
      acc + max 0 (Obs.Metrics.counter_of snap name - before))
    0 b.nodes

(* Samples a histogram took during the window, pooled over [nodes]
   (default all).  Histograms keep samples in insertion order, so the
   window's are those past the count held at the window start. *)
let samples ?nodes ~a ~b name =
  let out = Ledger.fvec () in
  List.iter
    (fun (id, snap) ->
      if match nodes with None -> true | Some l -> List.mem id l then
        match Obs.Metrics.histogram_of snap name with
        | None -> ()
        | Some h ->
          let skip =
            match List.assoc_opt id a.nodes with
            | Some s -> (
              match Obs.Metrics.histogram_of s name with
              | Some h0 -> Stats.Histogram.count h0
              | None -> 0)
            | None -> 0
          in
          let i = ref 0 in
          Stats.Histogram.iter h (fun v ->
              if !i >= skip then Ledger.push out v;
              incr i))
    b.nodes;
  Ledger.to_array out

let mean a =
  if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Nearest-rank percentile of an unsorted array; 0 when empty. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
  end

let ratio num den = if den <= 0.0 then 0.0 else num /. den

(* Name and unit of every per-layer metric, in output order. *)
let metrics =
  [
    ("workload.send_cpu_us_per_op", "us");
    ("workload.reply_cpu_us_per_op", "us");
    ("workload.recv_cpu_us_per_op", "us");
    ("workload.backlog_end", "count");
    ("sim.events_per_op", "count");
    ("sim.pending_peak", "count");
    ("sim.timer_cpu_us_per_op", "us");
    ("net.msgs_per_op", "count");
    ("net.bytes_per_op", "B");
    ("net.cross_region_bytes_per_op", "B");
    ("net.send_cpu_us_per_op", "us");
    ("net.dropped", "count");
    ("core.handle.write_req.cpu_us_per_op", "us");
    ("core.handle.read_req.cpu_us_per_op", "us");
    ("core.handle.ae.cpu_us_per_op", "us");
    ("core.handle.ae_resp.cpu_us_per_op", "us");
    ("core.handle.vote.cpu_us_per_op", "us");
    ("core.handle.read_index.cpu_us_per_op", "us");
    ("core.handle.snapshot.cpu_us_per_op", "us");
    ("core.handle.other.cpu_us_per_op", "us");
    ("core.handle.vote.count", "count");
    ("pipeline.flush_ms.mean", "ms");
    ("pipeline.flush_ms.p99", "ms");
    ("pipeline.consensus_wait_ms.mean", "ms");
    ("pipeline.consensus_wait_ms.p99", "ms");
    ("pipeline.engine_commit_ms.mean", "ms");
    ("pipeline.engine_commit_ms.p99", "ms");
    ("pipeline.txn_total_ms.mean", "ms");
    ("pipeline.txn_total_ms.p99", "ms");
    ("stage.residual_ms", "ms");
    ("pipeline.group_size_mean", "count");
    ("pipeline.commit_cycle_txns_mean", "count");
    ("pipeline.queue_depth_peak", "count");
    ("pipeline.txns_aborted", "count");
    ("server.writes_rejected", "count");
    ("applier.lag_peak", "count");
    ("applier.lag_end", "count");
    ("applier.dep_stalls", "count");
    ("server.promotions", "count");
    ("raft.ae_per_op", "count");
    ("raft.ae_batch_bytes_mean", "B");
    ("raft.heartbeats_per_vsec", "1/s");
    ("raft.retransmits", "count");
    ("raft.nacks", "count");
    ("raft.commit_latency_ms.p50", "ms");
    ("raft.commit_latency_ms.p99", "ms");
    ("raft.log_cache.hit_ratio", "ratio");
    ("raft.elections_started", "count");
    ("raft.election_win_ratio", "ratio");
    ("raft.election_latency_ms.p50", "ms");
    ("read.lease_served_ratio", "ratio");
    ("raft.readindex_rounds_per_read", "count");
    ("read.refused.applying", "count");
    ("read.refused.stale", "count");
    ("read.refused.timeout", "count");
    ("read.refused.other", "count");
    ("binlog.fsyncs_per_op", "count");
    ("binlog.fsync_batch_mean", "count");
    ("binlog.bytes_per_op", "B");
    ("binlog.truncations", "count");
    ("storage.rolled_back", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("obs.retained_samples_per_op", "count");
    ("trace.overhead_cpu_us_per_op", "us");
    ("trace.spans_per_op", "count");
  ]

type inputs = {
  fleet : Fleet.t;
  tracer : Tracer.t;
  a : mark;
  b : mark;
  ops : int;
  window_v : float; (* virtual seconds *)
  commit_mean_us : float; (* client-observed, ledger *)
  refused : Ledger.refusal -> int;
  backlog_end : int;
  lag_end : float;
  gc_minor : float; (* from an untraced pass of the same run *)
  gc_promoted : float;
  gc_major : int;
  overhead_us_per_op : float;
}

let compute i =
  let a = i.a and b = i.b in
  let ops = float_of_int (max 1 i.ops) in
  let per_op x = x /. ops in
  let cpu_us k = per_op (Tracer.self_s i.tracer k *. 1e6) in
  let ctr name = float_of_int (counter ~a ~b name) in
  let hist ?nodes name = samples ?nodes ~a ~b name in
  (* the pipeline runs on whichever server was primary: pool the
     servers that committed through it in the window *)
  let primaries =
    List.filter_map
      (fun (id, snap) ->
        let before =
          match List.assoc_opt id a.nodes with
          | Some s -> Obs.Metrics.counter_of s "pipeline.txns_committed"
          | None -> 0
        in
        if Obs.Metrics.counter_of snap "pipeline.txns_committed" > before then Some id else None)
      b.nodes
  in
  let stage name = Array.map (fun v -> v /. 1000.0) (hist ~nodes:primaries name) in
  let flush = stage "pipeline.flush_us"
  and wait = stage "pipeline.consensus_wait_us"
  and engine = stage "pipeline.engine_commit_us"
  and total = stage "pipeline.txn_total_us" in
  (* append-to-commit on the leader; followers learn most commits with
     the entries themselves and record zeros *)
  let commit_lat = stage "raft.commit_latency_us" in
  let retained =
    List.fold_left
      (fun acc (id, snap) ->
        let count s = List.fold_left (fun n (_, h) -> n + Stats.Histogram.count h) 0 s.Obs.Metrics.snap_histograms in
        acc + count snap - (match List.assoc_opt id a.nodes with Some s -> count s | None -> 0))
      0 b.nodes
  in
  let lease = ctr "read.lease_served" and quorum = ctr "read.quorum_served" in
  let started = ctr "raft.elections_started" in
  let hits = ctr "raft.log_cache.hits" and misses = ctr "raft.log_cache.disk_reads" in
  let ri = float_of_int in
  [
    ("workload.send_cpu_us_per_op", cpu_us Tracer.k_wl_send);
    ("workload.reply_cpu_us_per_op", cpu_us Tracer.k_wl_reply);
    ("workload.recv_cpu_us_per_op", cpu_us Tracer.k_wl_recv);
    ("workload.backlog_end", ri i.backlog_end);
    ("sim.events_per_op", per_op (ri (b.events - a.events)));
    ("sim.pending_peak", ri i.fleet.ctx.pending_peak);
    ("sim.timer_cpu_us_per_op", cpu_us Tracer.k_run);
    ("net.msgs_per_op", per_op (ri (b.msgs - a.msgs)));
    ("net.bytes_per_op", per_op (ri (b.bytes - a.bytes)));
    ("net.cross_region_bytes_per_op", per_op (ri (b.cross - a.cross)));
    ("net.send_cpu_us_per_op", cpu_us Tracer.k_net_send);
    ("net.dropped", ri (b.dropped - a.dropped));
    ("core.handle.write_req.cpu_us_per_op", cpu_us Tracer.k_write_req);
    ("core.handle.read_req.cpu_us_per_op", cpu_us Tracer.k_read_req);
    ("core.handle.ae.cpu_us_per_op", cpu_us Tracer.k_ae);
    ("core.handle.ae_resp.cpu_us_per_op", cpu_us Tracer.k_ae_resp);
    ("core.handle.vote.cpu_us_per_op", cpu_us Tracer.k_vote);
    ("core.handle.read_index.cpu_us_per_op", cpu_us Tracer.k_read_index);
    ("core.handle.snapshot.cpu_us_per_op", cpu_us Tracer.k_snapshot);
    ("core.handle.other.cpu_us_per_op", cpu_us Tracer.k_other);
    ("core.handle.vote.count", ri (Tracer.count i.tracer Tracer.k_vote));
    ("pipeline.flush_ms.mean", mean flush);
    ("pipeline.flush_ms.p99", pct flush 99.0);
    ("pipeline.consensus_wait_ms.mean", mean wait);
    ("pipeline.consensus_wait_ms.p99", pct wait 99.0);
    ("pipeline.engine_commit_ms.mean", mean engine);
    ("pipeline.engine_commit_ms.p99", pct engine 99.0);
    ("pipeline.txn_total_ms.mean", mean total);
    ("pipeline.txn_total_ms.p99", pct total 99.0);
    ("stage.residual_ms", (i.commit_mean_us /. 1000.0) -. mean total);
    ("pipeline.group_size_mean", mean (hist ~nodes:primaries "pipeline.group_size"));
    ("pipeline.commit_cycle_txns_mean", mean (hist ~nodes:primaries "pipeline.commit_cycle_txns"));
    ("pipeline.queue_depth_peak", i.fleet.ctx.queue_peak);
    ("pipeline.txns_aborted", ctr "pipeline.txns_aborted");
    ("server.writes_rejected", ctr "server.writes_rejected");
    ("applier.lag_peak", Float.max i.fleet.ctx.lag_peak i.lag_end);
    ("applier.lag_end", i.lag_end);
    ("applier.dep_stalls", ctr "applier.dep_stalls");
    ("server.promotions", ctr "server.promotions");
    ("raft.ae_per_op", per_op (ctr "raft.ae_sent"));
    ("raft.ae_batch_bytes_mean", mean (hist "raft.ae_batch_bytes"));
    ("raft.heartbeats_per_vsec", ratio (ctr "raft.heartbeats_sent") i.window_v);
    ("raft.retransmits", ctr "raft.retransmits");
    ("raft.nacks", ctr "raft.nacks");
    ("raft.commit_latency_ms.p50", pct commit_lat 50.0);
    ("raft.commit_latency_ms.p99", pct commit_lat 99.0);
    ("raft.log_cache.hit_ratio", ratio hits (hits +. misses));
    ("raft.elections_started", started);
    ("raft.election_win_ratio", ratio (ctr "raft.elections_won") started);
    ( "raft.election_latency_ms.p50",
      pct (hist "raft.election_latency_us") 50.0 /. 1000.0 );
    ("read.lease_served_ratio", ratio lease (lease +. quorum));
    ("raft.readindex_rounds_per_read", ratio (ctr "raft.readindex_rounds") (lease +. quorum));
    ("read.refused.applying", ri (i.refused Ledger.Applying));
    ("read.refused.stale", ri (i.refused Ledger.Stale));
    ("read.refused.timeout", ri (i.refused Ledger.Timeout));
    ("read.refused.other", ri (i.refused Ledger.Other));
    ("binlog.fsyncs_per_op", per_op (ctr "binlog.fsyncs"));
    ("binlog.fsync_batch_mean", mean (hist "binlog.fsync_batch_entries"));
    ("binlog.bytes_per_op", per_op (ctr "binlog.bytes_appended"));
    ("binlog.truncations", ctr "binlog.truncations");
    ("storage.rolled_back", ri (max 0 (b.rolled_back - a.rolled_back)));
    ("gc.minor_words_per_op", per_op i.gc_minor);
    ("gc.promoted_words_per_op", per_op i.gc_promoted);
    ("gc.major_collections", ri i.gc_major);
    ("obs.retained_samples_per_op", per_op (ri retained));
    ("trace.overhead_cpu_us_per_op", i.overhead_us_per_op);
    ("trace.spans_per_op", per_op (ri (Tracer.spans i.tracer)));
  ]
