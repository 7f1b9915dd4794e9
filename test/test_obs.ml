(* Observability layer: metrics registry, OpId-correlated trace ring,
   and end-to-end commit-path instrumentation. *)

let s = Sim.Engine.s

(* ----- metrics registry ----- *)

let test_counters_gauges_histograms () =
  let m = Obs.Metrics.create ~node:"n1" () in
  let c = Obs.Metrics.counter m "a.count" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  (* bump resolves the same underlying counter by name *)
  Obs.Metrics.bump m "a.count";
  Obs.Metrics.set m "a.depth" 3.0;
  Obs.Metrics.observe m "a.lat_us" 100.0;
  Obs.Metrics.observe m "a.lat_us" 300.0;
  let snap = Obs.Metrics.snapshot m in
  Alcotest.(check string) "node label" "n1" snap.Obs.Metrics.snap_node;
  Alcotest.(check int) "counter" 6 (Obs.Metrics.counter_of snap "a.count");
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.Metrics.counter_of snap "nope");
  Alcotest.(check (option (float 1e-6))) "gauge" (Some 3.0)
    (Obs.Metrics.gauge_of snap "a.depth");
  match Obs.Metrics.histogram_of snap "a.lat_us" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some h ->
    Alcotest.(check int) "samples" 2 (Stats.Histogram.count h);
    Alcotest.(check (float 1e-6)) "mean" 200.0 (Stats.Histogram.mean h)

let test_snapshot_merge () =
  let a = Obs.Metrics.create ~node:"a" () in
  let b = Obs.Metrics.create ~node:"b" () in
  Obs.Metrics.bump ~by:2 a "x";
  Obs.Metrics.bump ~by:3 b "x";
  Obs.Metrics.bump b "only_b";
  Obs.Metrics.set a "g" 1.5;
  Obs.Metrics.set b "g" 2.5;
  Obs.Metrics.observe a "h" 10.0;
  Obs.Metrics.observe b "h" 30.0;
  let merged = Obs.Metrics.merge (Obs.Metrics.snapshot a) (Obs.Metrics.snapshot b) in
  Alcotest.(check int) "counters sum" 5 (Obs.Metrics.counter_of merged "x");
  Alcotest.(check int) "one-sided counter kept" 1 (Obs.Metrics.counter_of merged "only_b");
  Alcotest.(check (option (float 1e-6))) "gauges sum" (Some 4.0)
    (Obs.Metrics.gauge_of merged "g");
  (match Obs.Metrics.histogram_of merged "h" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
    Alcotest.(check int) "histogram samples pooled" 2 (Stats.Histogram.count h);
    Alcotest.(check (float 1e-6)) "pooled mean" 20.0 (Stats.Histogram.mean h));
  let all =
    Obs.Metrics.merge_all ~node:"all"
      [ Obs.Metrics.snapshot a; Obs.Metrics.snapshot b ]
  in
  Alcotest.(check string) "merge_all node label" "all" all.Obs.Metrics.snap_node;
  Alcotest.(check int) "merge_all sums" 5 (Obs.Metrics.counter_of all "x")

(* [merge_all] against the pairwise fold of [merge] it replaced (kept
   here as the oracle): same label, counters, gauges (same summation
   order, so bit-equal), and per histogram the same count, the same
   samples in iteration order — the inputs' samples concatenated in
   snapshot order — and the same percentiles and mean. *)
let prop_merge_all_equals_pairwise_fold =
  let snap_gen =
    QCheck.Gen.(
      let name pool = oneofl pool in
      let* node = oneofl [ ""; "a"; "b"; "a+b" ] in
      let* counters = list_size (0 -- 3) (pair (name [ "c1"; "c2"; "c3" ]) (0 -- 100)) in
      let* gauges =
        list_size (0 -- 3) (pair (name [ "g1"; "g2" ]) (float_range (-5.0) 5.0))
      in
      let* hists =
        list_size (0 -- 3)
          (pair (name [ "h1"; "h2"; "h3" ]) (list_size (0 -- 40) (float_range 0.0 1e4)))
      in
      return (node, counters, gauges, hists))
  in
  let arb = QCheck.make QCheck.Gen.(list_size (0 -- 7) snap_gen) in
  QCheck.Test.make ~name:"merge_all equals the pairwise merge fold" ~count:300 arb
    (fun specs ->
      let snaps =
        List.map
          (fun (node, counters, gauges, hists) ->
            let m = Obs.Metrics.create ~node () in
            List.iter (fun (n, v) -> Obs.Metrics.bump ~by:v m n) counters;
            List.iter (fun (n, v) -> Obs.Metrics.set m n v) gauges;
            List.iter (fun (n, vs) -> List.iter (Obs.Metrics.observe m n) vs) hists;
            Obs.Metrics.snapshot m)
          specs
      in
      let samples h =
        let acc = ref [] in
        Stats.Histogram.iter h (fun v -> acc := v :: !acc);
        List.rev !acc
      in
      let expected_samples name =
        List.concat_map
          (fun s ->
            match Obs.Metrics.histogram_of s name with Some h -> samples h | None -> [])
          snaps
      in
      let got = Obs.Metrics.merge_all snaps in
      let oracle =
        List.fold_left Obs.Metrics.merge (Obs.Metrics.empty_snapshot ()) snaps
      in
      let hist_names s = List.map fst s.Obs.Metrics.snap_histograms in
      got.Obs.Metrics.snap_node = oracle.Obs.Metrics.snap_node
      && got.snap_counters = oracle.snap_counters
      && List.equal
           (fun (a, x) (b, y) ->
             a = b && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           got.snap_gauges oracle.snap_gauges
      && hist_names got = hist_names oracle
      && List.for_all2
           (fun (name, g) (_, o) ->
             let gs = samples g in
             Stats.Histogram.count g = Stats.Histogram.count o
             && gs = samples o
             && gs = expected_samples name
             && List.for_all
                  (fun p ->
                    Stats.Histogram.percentile g p = Stats.Histogram.percentile o p)
                  [ 0.0; 50.0; 90.0; 99.0; 100.0 ]
             && Stats.Histogram.mean g = Stats.Histogram.mean o)
           got.snap_histograms oracle.snap_histograms
      && (Obs.Metrics.merge_all ~node:"all" snaps).snap_node = "all")

let test_render_and_json () =
  let m = Obs.Metrics.create ~node:"n" () in
  Obs.Metrics.bump ~by:7 m "writes";
  Obs.Metrics.observe m "lat" 42.0;
  let snap = Obs.Metrics.snapshot m in
  let text = Obs.Metrics.render snap in
  Alcotest.(check bool) "render names the counter" true (Helpers.contains text "writes");
  Alcotest.(check bool) "render shows the value" true (Helpers.contains text "7");
  let json = Obs.Metrics.to_json snap in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" key) true
        (Helpers.contains json key))
    [ "\"node\""; "\"counters\""; "\"gauges\""; "\"histograms\""; "\"writes\":7"; "\"p99\"" ]

(* ----- trace ring ----- *)

let test_trace_ring_wraparound () =
  let tb = Obs.Tracebuf.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Tracebuf.record tb ~time:(float_of_int i) ~node:"n" ~stage:"flush" ~term:1 ~index:i
      ()
  done;
  Alcotest.(check int) "capacity" 4 (Obs.Tracebuf.capacity tb);
  Alcotest.(check int) "total ever recorded" 6 (Obs.Tracebuf.total tb);
  Alcotest.(check int) "retained" 4 (Obs.Tracebuf.length tb);
  Alcotest.(check int) "dropped to wraparound" 2 (Obs.Tracebuf.dropped tb);
  Alcotest.(check (list int)) "oldest two overwritten, rest in order" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Obs.Tracebuf.ev_index) (Obs.Tracebuf.events tb))

let test_trace_opid_correlation () =
  let tb = Obs.Tracebuf.create () in
  Obs.Tracebuf.record tb ~time:1.0 ~node:"p" ~stage:"flush" ~term:2 ~index:7 ();
  Obs.Tracebuf.record tb ~time:2.0 ~node:"p" ~stage:"consensus-commit" ~term:2 ~index:7 ();
  Obs.Tracebuf.record tb ~time:2.5 ~node:"r" ~stage:"consensus-commit" ~term:2 ~index:8 ();
  Obs.Tracebuf.record tb ~time:3.0 ~node:"r" ~stage:"engine-commit" ~term:2 ~index:7 ();
  let evs = Obs.Tracebuf.for_opid tb ~term:2 ~index:7 in
  Alcotest.(check (list string)) "one opid's stages, in record order"
    [ "flush"; "consensus-commit"; "engine-commit" ]
    (List.map (fun e -> e.Obs.Tracebuf.ev_stage) evs);
  Alcotest.(check int) "stage filter spans opids" 2
    (List.length (Obs.Tracebuf.for_stage tb ~stage:"consensus-commit"));
  Alcotest.(check bool) "rendered event names the opid" true
    (Helpers.contains (Obs.Tracebuf.render tb) "opid=2.7")

(* ----- end-to-end: the commit path populates metrics and traces ----- *)

let test_commit_path_instrumented () =
  let cluster =
    Helpers.bootstrapped ~members:(Myraft.Cluster.single_region_members ()) ()
  in
  let n = Helpers.write_n cluster 20 in
  Alcotest.(check int) "all writes committed" 20 n;
  (* let the replica's applier drain *)
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let snap = Myraft.Cluster.metrics_snapshot cluster in
  List.iter
    (fun name ->
      if Obs.Metrics.counter_of snap name = 0 then
        Alcotest.failf "expected nonzero %s after a committed workload" name)
    [
      "server.writes_committed";
      "pipeline.txns_committed";
      "raft.ae_sent";
      "raft.commit_advances";
      "binlog.appends";
      "binlog.fsyncs";
      "net.messages";
    ];
  List.iter
    (fun name ->
      match Obs.Metrics.histogram_of snap name with
      | None -> Alcotest.failf "stage histogram %s missing" name
      | Some h ->
        if Stats.Histogram.count h = 0 then Alcotest.failf "stage histogram %s empty" name)
    [ "pipeline.flush_us"; "pipeline.consensus_wait_us"; "pipeline.engine_commit_us" ];
  (* per-node registries are reachable individually *)
  (match Myraft.Cluster.metrics_of cluster "mysql1" with
  | None -> Alcotest.fail "mysql1 has no registry"
  | Some m ->
    Alcotest.(check bool) "primary counted its own commits" true
      (Obs.Metrics.counter_of (Obs.Metrics.snapshot m) "server.writes_committed" > 0));
  (* OpId correlation: a transaction that engine-committed on the replica
     must show a flush + engine-commit on the primary and consensus
     commits from a data quorum, all under the same (term, index). *)
  let tb = Myraft.Cluster.tracebuf cluster in
  let on_node node = List.filter (fun e -> e.Obs.Tracebuf.ev_node = node) in
  match on_node "mysql2" (Obs.Tracebuf.for_stage tb ~stage:"engine-commit") with
  | [] -> Alcotest.fail "replica recorded no engine-commit trace events"
  | e :: _ -> (
    let opid =
      Obs.Tracebuf.for_opid tb ~term:e.Obs.Tracebuf.ev_term ~index:e.Obs.Tracebuf.ev_index
    in
    let stages_on node =
      List.map (fun ev -> ev.Obs.Tracebuf.ev_stage) (on_node node opid)
    in
    Alcotest.(check bool) "primary flushed the same opid" true
      (List.mem "flush" (stages_on "mysql1"));
    Alcotest.(check bool) "primary engine-committed the same opid" true
      (List.mem "engine-commit" (stages_on "mysql1"));
    let committers =
      List.sort_uniq compare
        (List.filter_map
           (fun ev ->
             if ev.Obs.Tracebuf.ev_stage = "consensus-commit" then
               Some ev.Obs.Tracebuf.ev_node
             else None)
           opid)
    in
    match committers with
    | _ :: _ :: _ -> ()
    | _ -> Alcotest.failf "consensus-commit seen on %d node(s), wanted >= 2"
             (List.length committers))

let suites =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counters, gauges, histograms" `Quick
          test_counters_gauges_histograms;
        Alcotest.test_case "snapshot merge" `Quick test_snapshot_merge;
        QCheck_alcotest.to_alcotest prop_merge_all_equals_pairwise_fold;
        Alcotest.test_case "render + json" `Quick test_render_and_json;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
        Alcotest.test_case "opid correlation" `Quick test_trace_opid_correlation;
      ] );
    ( "obs.e2e",
      [
        Alcotest.test_case "commit path populates metrics and traces" `Quick
          test_commit_path_instrumented;
      ] );
  ]
