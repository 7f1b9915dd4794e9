(* Workload generator and failure-injection tests over both backends. *)

let ms = Helpers.ms
let s = Helpers.s

let test_open_loop_measures_latency () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:500.0;
  Myraft.Cluster.run_for cluster (5.0 *. s);
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let st = Workload.Generator.stats gen in
  Alcotest.(check bool) "enough commits" true (st.Workload.Generator.committed > 1000);
  Alcotest.(check int) "no rejects in steady state" 0 st.Workload.Generator.rejected;
  let h = st.Workload.Generator.latencies in
  (* latency must include the ~200us client RTT plus the commit path *)
  Alcotest.(check bool) "plausible latency floor" true
    (Stats.Histogram.min_value h > 200.0);
  Alcotest.(check bool) "plausible latency ceiling" true
    (Stats.Histogram.percentile h 99.0 < 50_000.0)

let test_closed_loop_throughput_scales_with_threads () =
  let run threads =
    let cluster =
      Helpers.bootstrapped ~seed:(100 + threads)
        ~members:(Myraft.Cluster.small_members ()) ()
    in
    let backend = Workload.Backend.myraft cluster in
    let gen =
      Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
        ~client_latency:(5.0 *. Sim.Engine.us) ()
    in
    Workload.Generator.start_closed_loop gen ~threads;
    Myraft.Cluster.run_for cluster (5.0 *. s);
    Workload.Generator.stop gen;
    (Workload.Generator.stats gen).Workload.Generator.committed
  in
  let one = run 1 and eight = run 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads (%d) beat 1 thread (%d)" eight one)
    true
    (float_of_int eight > 2.0 *. float_of_int one)

let test_open_loop_survives_failover () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ~write_timeout:(3.0 *. s) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:200.0;
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Myraft.Cluster.crash cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.run_for cluster (5.0 *. s);
  Workload.Generator.stop gen;
  let st = Workload.Generator.stats gen in
  (* the generator keeps issuing and commits resume on the new primary *)
  Alcotest.(check bool) "losses during failover" true
    (st.Workload.Generator.timed_out + st.Workload.Generator.rejected > 0);
  Alcotest.(check bool) "commits resumed" true
    (st.Workload.Generator.committed > st.Workload.Generator.timed_out)

let test_generator_against_semisync_backend () =
  let members = Myraft.Cluster.single_region_members () in
  let ss = Semisync.Cluster.create ~seed:3 ~replicaset:"wk" ~members () in
  Semisync.Cluster.bootstrap ss ~leader_id:"mysql1";
  let backend = Workload.Backend.semisync ss in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:300.0;
  Semisync.Cluster.run_for ss (3.0 *. s);
  Workload.Generator.stop gen;
  Semisync.Cluster.run_for ss (1.0 *. s);
  Alcotest.(check bool) "semisync backend commits" true
    ((Workload.Generator.stats gen).Workload.Generator.committed > 500)

(* MyShadow (§5.1) as a one-kind nemesis: crash the leader every 10 s,
   restart it 4 s later, one fault at a time; the engine-checksum
   comparison is the invariant checker's digest-chain prefix check plus
   the final convergence check. *)
let test_failure_injection_preserves_consistency () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.single_region_members ()) () in
  let engine = Myraft.Cluster.engine cluster in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"load" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ~write_timeout:(10.0 *. s) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:100.0;
  let nemesis =
    Chaos.Nemesis.create ~engine ~trace:(Myraft.Cluster.trace cluster)
      ~rng:(Sim.Rng.split (Sim.Engine.rng engine))
      ~spec:
        {
          Chaos.Schedule.default with
          Chaos.Schedule.mix = [ (Chaos.Schedule.Leader_crash, 1.0) ];
          inject_p = 1.0;
          max_concurrent = 1;
          heal_after_lo = 4.0 *. s;
          heal_after_hi = 4.0 *. s;
        }
      ~ops:(Chaos.Nemesis.ops_of_cluster cluster)
  in
  let checker =
    Chaos.Invariants.create
      ~now:(fun () -> Myraft.Cluster.now cluster)
      ~probes:(Chaos.Nemesis.probes_of_cluster cluster) ()
  in
  let injecting = ref true in
  let rec inject () =
    if !injecting then begin
      Chaos.Nemesis.step nemesis;
      Chaos.Invariants.check checker;
      ignore (Sim.Engine.schedule engine ~delay:(10.0 *. s) inject)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:(10.0 *. s) inject);
  Myraft.Cluster.run_for cluster (35.0 *. s);
  injecting := false;
  Workload.Generator.stop gen;
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () ->
         Myraft.Cluster.primary cluster <> None));
  Myraft.Cluster.run_for cluster (10.0 *. s);
  Alcotest.(check bool) "injections happened" true
    (Chaos.Nemesis.total_injections nemesis >= 2);
  Chaos.Invariants.check checker;
  Chaos.Invariants.check_converged checker;
  Alcotest.(check (list string)) "no divergence" []
    (List.map Chaos.Invariants.violation_to_string (Chaos.Invariants.violations checker));
  Alcotest.(check bool) "progress" true
    (Storage.Engine.committed_count
       (Myraft.Server.storage (Option.get (Myraft.Cluster.primary cluster)))
    > 0)

let test_shadow_trace_deterministic () =
  let t1 = Workload.Shadow.record ~seed:9 ~rate_per_s:100.0 ~duration:(2.0 *. s) () in
  let t2 = Workload.Shadow.record ~seed:9 ~rate_per_s:100.0 ~duration:(2.0 *. s) () in
  Alcotest.(check int) "same length" (Workload.Shadow.length t1) (Workload.Shadow.length t2);
  Alcotest.(check int) "same bytes" (Workload.Shadow.total_bytes t1)
    (Workload.Shadow.total_bytes t2);
  Alcotest.(check bool) "plausible op count" true
    (abs (Workload.Shadow.length t1 - 200) < 60)

let test_shadow_replay_identical_on_both_stacks () =
  let trace = Workload.Shadow.record ~seed:10 ~rate_per_s:200.0 ~duration:(3.0 *. s) () in
  (* MyRaft side *)
  let my_cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let my_gen =
    Workload.Shadow.replay trace ~backend:(Workload.Backend.myraft my_cluster)
      ~region:"r1" ~client_latency:(100.0 *. Sim.Engine.us)
  in
  Myraft.Cluster.run_for my_cluster (5.0 *. s);
  (* Semi-sync side *)
  let ss_cluster =
    Semisync.Cluster.create ~seed:10 ~replicaset:"ss"
      ~members:(Myraft.Cluster.single_region_members ()) ()
  in
  Semisync.Cluster.bootstrap ss_cluster ~leader_id:"mysql1";
  let ss_gen =
    Workload.Shadow.replay trace ~backend:(Workload.Backend.semisync ss_cluster)
      ~region:"r1" ~client_latency:(100.0 *. Sim.Engine.us)
  in
  Semisync.Cluster.run_for ss_cluster (5.0 *. s);
  let my_st = Workload.Generator.stats my_gen and ss_st = Workload.Generator.stats ss_gen in
  (* identical inputs on both stacks *)
  Alcotest.(check int) "same issued" my_st.Workload.Generator.issued
    ss_st.Workload.Generator.issued;
  Alcotest.(check int) "myraft committed all" (Workload.Shadow.length trace)
    my_st.Workload.Generator.committed;
  Alcotest.(check int) "semisync committed all" (Workload.Shadow.length trace)
    ss_st.Workload.Generator.committed;
  (* identical keys landed: the hottest rows exist on both primaries *)
  let my_primary = Option.get (Myraft.Cluster.primary my_cluster) in
  let ss_primary = Option.get (Semisync.Cluster.primary ss_cluster) in
  List.iter
    (fun op ->
      let key = op.Workload.Shadow.key in
      Alcotest.(check bool)
        ("key " ^ key ^ " on both")
        true
        (Storage.Engine.get (Myraft.Server.storage my_primary) ~table:"shadow" ~key <> None
        && Storage.Engine.get (Semisync.Server.storage ss_primary) ~table:"shadow" ~key
           <> None))
    (Workload.Shadow.ops trace)

(* Key-skew knob: draw a large sample from each distribution and check
   its shape.  Pure generator-side test — no cluster traffic needed. *)
let test_key_dist_shapes () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let backend = Workload.Backend.myraft cluster in
  let sample name key_dist =
    let gen =
      Workload.Generator.create ~backend ~client_id:("dist-" ^ name) ~region:"r1"
        ~key_space:100 ~key_dist ()
    in
    let counts = Array.make 100 0 in
    for _ = 1 to 20_000 do
      let i = Workload.Generator.draw_key_index gen in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < 100);
      counts.(i) <- counts.(i) + 1
    done;
    counts
  in
  (* uniform: every key within 3x of the 200-expected mean *)
  let u = sample "uniform" Workload.Generator.Uniform in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "uniform key %d plausible (%d)" i c)
        true
        (c > 66 && c < 600))
    u;
  (* zipf(1.0): rank 0 hottest, heavily skewed, long tail still sampled *)
  let z = sample "zipf" (Workload.Generator.Zipf 1.0) in
  Alcotest.(check bool) "zipf head dominates" true (z.(0) > 3 * z.(9));
  Alcotest.(check bool)
    (Printf.sprintf "zipf head is hot (%d)" z.(0))
    true
    (z.(0) > 2_000);
  Alcotest.(check bool) "zipf monotone-ish head" true (z.(0) > z.(1) && z.(1) > z.(4));
  (* hot-spot: 90% of draws land on the first 5 keys *)
  let h = sample "hotspot" (Workload.Generator.Hot_spot { hot_fraction = 0.9; hot_keys = 5 }) in
  let hot = Array.fold_left ( + ) 0 (Array.sub h 0 5) in
  Alcotest.(check bool)
    (Printf.sprintf "hot spot concentrates (%d/20000)" hot)
    true
    (hot > 17_000 && hot < 19_500);
  Alcotest.(check bool) "cold tail still sampled" true (Array.exists (fun c -> c > 0) (Array.sub h 5 95))

(* The event queue holds live work only: under open-loop writes and
   linearizable reads, every request's timeout (and the read service's
   deadline) is cancelled when it settles, so the queue stays within a
   fixed multiple of the requests in flight, on top of the idle
   cluster's own timers and the arrival tick.  Arming timeouts that are
   never cancelled would instead grow it with the arrival rate times
   the timeout. *)
let test_event_queue_bounded_by_inflight () =
  let cluster =
    Helpers.bootstrapped ~seed:7 ~members:(Myraft.Cluster.small_members ()) ()
  in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let engine = Myraft.Cluster.engine cluster in
  let idle = Sim.Engine.pending engine in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
      ~client_latency:(2.0 *. ms) ~read_ratio:0.5 ~read_level:Read.Level.Linearizable ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:5_000.0;
  let per_request = 5 in
  for _ = 1 to 500 do
    Myraft.Cluster.run_for cluster (10.0 *. ms);
    let st = Workload.Generator.stats gen in
    let open Workload.Generator in
    let inflight =
      st.issued - st.committed - st.rejected - st.timed_out
      + (st.reads_issued - st.reads_ok - st.reads_rejected - st.reads_timed_out)
    in
    let pending = Sim.Engine.pending engine in
    if pending > idle + 1 + (per_request * inflight) then
      Alcotest.failf "%d events queued for %d requests in flight (idle cluster: %d)"
        pending inflight idle
  done;
  let st = Workload.Generator.stats gen in
  Alcotest.(check bool) "writes and reads served" true
    (st.Workload.Generator.committed > 10_000 && st.Workload.Generator.reads_ok > 10_000)

let suites =
  [
    ( "workload.shadow",
      [
        Alcotest.test_case "trace recording deterministic" `Quick
          test_shadow_trace_deterministic;
        Alcotest.test_case "replay identical on both stacks" `Quick
          test_shadow_replay_identical_on_both_stacks;
      ] );
    ( "workload",
      [
        Alcotest.test_case "open loop measures latency" `Quick test_open_loop_measures_latency;
        Alcotest.test_case "closed loop scales with threads" `Quick
          test_closed_loop_throughput_scales_with_threads;
        Alcotest.test_case "open loop survives failover" `Quick test_open_loop_survives_failover;
        Alcotest.test_case "semisync backend" `Quick test_generator_against_semisync_backend;
        Alcotest.test_case "failure injection keeps consistency" `Quick
          test_failure_injection_preserves_consistency;
        Alcotest.test_case "key distribution shapes" `Quick test_key_dist_shapes;
        Alcotest.test_case "event queue bounded by in-flight requests" `Quick
          test_event_queue_bounded_by_inflight;
      ] );
  ]
