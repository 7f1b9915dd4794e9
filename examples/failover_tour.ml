(* Failover tour: a multi-region FlexiRaft ring under live traffic.
   Crash the primary and narrate the automatic failover — failure
   detection by missed heartbeats, leader election (possibly via an
   interim logtailer leader), promotion orchestration, and the measured
   client-side downtime.

     dune exec examples/failover_tour.exe *)

let s = Sim.Engine.s
let ms = Sim.Engine.ms

let members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
    Myraft.Cluster.mysql ~voter:false "learner1" "r2";
  ]

let () =
  print_endline "== MyRaft failover tour ==";
  let cluster =
    Myraft.Cluster.create ~seed:17 ~echo_trace:true ~replicaset:"tour"
      ~members:(members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  Printf.printf "\nring after bootstrap:\n%s\n\n" (Myraft.Cluster.describe cluster);

  (* background load + availability probe *)
  let backend = Workload.Backend.myraft cluster in
  let load =
    Workload.Generator.create ~backend ~client_id:"app" ~region:"r1"
      ~client_latency:(200.0 *. Sim.Engine.us) ()
  in
  Workload.Generator.start_open_loop load ~rate_per_s:200.0;
  let probe = Myraft.Availability.start cluster ~client_id:"probe" in
  Myraft.Cluster.run_for cluster (3.0 *. s);

  Printf.printf "\n>>> killing the primary (mysql1) at t=%.1fs <<<\n\n"
    (Myraft.Cluster.now cluster /. s);
  let crash_at = Myraft.Cluster.now cluster in
  Myraft.Cluster.crash cluster "mysql1";

  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.run_for cluster (3.0 *. s);
  let end_at = Myraft.Cluster.now cluster in
  Workload.Generator.stop load;
  Myraft.Availability.stop probe;

  let downtime = Myraft.Availability.max_downtime probe ~start_time:crash_at ~end_time:end_at in
  Printf.printf "\nring after failover:\n%s\n" (Myraft.Cluster.describe cluster);
  (match Myraft.Cluster.tailer cluster "lt1a" with
  | Some lt when Myraft.Logtailer.interim_leaderships lt > 0 ->
    print_endline "(lt1a won an interim leadership and handed off, §2.2)"
  | _ -> ());
  Printf.printf
    "\nmeasured client-side write downtime: %.0f ms\n\
     (detection ~1.5s from 3 missed 500ms heartbeats + election + promotion)\n"
    (downtime /. ms);
  Printf.printf "load summary: %s\n" (Workload.Generator.summary load);

  (* the crashed node rejoins as a replica and converges *)
  print_endline "\nrestarting mysql1; it rejoins as a replica...";
  Myraft.Cluster.restart cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.server cluster "mysql1" with
         | Some srv ->
           Myraft.Server.role srv = Myraft.Server.Replica
           && not (Raft.Node.is_leader (Myraft.Server.raft srv))
         | None -> false));
  Myraft.Cluster.run_for cluster (5.0 *. s);
  Printf.printf "\nfinal ring:\n%s\n" (Myraft.Cluster.describe cluster);
  let checker =
    Chaos.Invariants.create
      ~now:(fun () -> Myraft.Cluster.now cluster)
      ~probes:(Chaos.Nemesis.probes_of_cluster cluster) ()
  in
  Chaos.Invariants.check checker;
  Chaos.Invariants.check_converged checker;
  match Chaos.Invariants.violations checker with
  | [] ->
    Printf.printf "\nconsistency check: all engines identical at %d txns\n"
      (Storage.Engine.committed_count
         (Myraft.Server.storage (Option.get (Myraft.Cluster.primary cluster))))
  | vs ->
    List.iter
      (fun v ->
        Printf.printf "\nconsistency check FAILED: %s\n"
          (Chaos.Invariants.violation_to_string v))
      vs;
    exit 1
