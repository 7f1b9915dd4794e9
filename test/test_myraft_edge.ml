(* Edge-case integration tests: repeated failovers, FlexiRaft's
   consistency-over-availability choice under a full leader-region
   partition, learner promotion to failover-capable voter, row-lock
   contention on the primary, and commit-pipeline behaviour under
   concurrent clients. *)

let ms = Helpers.ms
let s = Helpers.s

let two_region_members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
  ]

let wait_new_primary ?(timeout = 40.0 *. s) cluster ~not_this =
  Myraft.Cluster.run_until cluster ~timeout (fun () ->
      match Myraft.Cluster.primary cluster with
      | Some srv -> Myraft.Server.id srv <> not_this
      | None -> false)

let test_repeated_failovers_converge () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  ignore (Helpers.write_n cluster 5);
  for round = 1 to 3 do
    let victim = Myraft.Server.id (Option.get (Myraft.Cluster.primary cluster)) in
    Myraft.Cluster.crash cluster victim;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: new primary" round)
      true
      (wait_new_primary cluster ~not_this:victim);
    ignore (Helpers.write_n ~prefix:(Printf.sprintf "r%d-" round) cluster 5);
    Myraft.Cluster.restart cluster victim;
    Myraft.Cluster.run_for cluster (5.0 *. s)
  done;
  Myraft.Cluster.run_for cluster (5.0 *. s);
  let checker =
    Chaos.Invariants.create
      ~now:(fun () -> Myraft.Cluster.now cluster)
      ~probes:(Chaos.Nemesis.probes_of_cluster cluster) ()
  in
  Chaos.Invariants.check checker;
  Chaos.Invariants.check_converged checker;
  Alcotest.(check (list string)) "no divergence after 3 failovers" []
    (List.map Chaos.Invariants.violation_to_string (Chaos.Invariants.violations checker));
  List.iter
    (fun srv ->
      Alcotest.(check int) "all 20 txns everywhere" 20
        (Storage.Engine.committed_count (Myraft.Server.storage srv)))
    (Myraft.Cluster.servers cluster)

let test_leader_region_partition_chooses_consistency () =
  (* §4.1: when the leader's whole region partitions away, FlexiRaft
     waits for the partition to heal rather than electing unsafely. *)
  let cluster = Helpers.bootstrapped ~members:(two_region_members ()) () in
  ignore (Helpers.write_n cluster 5);
  Sim.Network.cut_regions (Myraft.Cluster.network cluster) "r1" "r2";
  (* the isolated leader can still commit with its in-region quorum *)
  Helpers.check_ok "in-region commit during partition"
    (Helpers.direct_write cluster ~key:"during" ~value:"v");
  (* r2 cannot elect: it would need a majority of r1 (the last leader's
     region) *)
  Myraft.Cluster.run_for cluster (20.0 *. s);
  (match Myraft.Cluster.raft_of cluster "mysql2" with
  | Some r -> Alcotest.(check bool) "r2 did not elect" false (Raft.Node.is_leader r)
  | None -> Alcotest.fail "mysql2 missing");
  Alcotest.(check (option string)) "mysql1 still the leader" (Some "mysql1")
    (Myraft.Cluster.raft_leader cluster);
  (* heal: r2 converges on everything written during the partition *)
  Sim.Network.heal_regions (Myraft.Cluster.network cluster) "r1" "r2";
  let converged () =
    match Myraft.Cluster.server cluster "mysql2" with
    | Some srv ->
      Storage.Engine.get (Myraft.Server.storage srv) ~table:"t" ~key:"during" = Some "v"
    | None -> false
  in
  Alcotest.(check bool) "r2 catches up after heal" true
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) converged)

let test_learner_promoted_then_leads () =
  (* A learner is a non-failover replica; after automation promotes it to
     voter it can receive leadership. *)
  let members = Myraft.Cluster.small_members () @ [ Myraft.Cluster.mysql ~voter:false "learner1" "r1" ] in
  let cluster = Helpers.bootstrapped ~members () in
  ignore (Helpers.write_n cluster 5);
  (* leadership cannot be transferred to a learner *)
  (match Myraft.Cluster.transfer_leadership cluster ~target:"learner1" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "transfer to a learner must be rejected");
  let leader = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  (match Raft.Node.promote_learner leader "learner1" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "promote_learner: %s" e);
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Helpers.check_ok "transfer to promoted learner"
    (Myraft.Cluster.transfer_leadership cluster ~target:"learner1");
  let ok =
    Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
        match Myraft.Cluster.primary cluster with
        | Some srv -> Myraft.Server.id srv = "learner1"
        | None -> false)
  in
  Alcotest.(check bool) "former learner serves writes" true ok;
  Helpers.check_ok "write on former learner"
    (Helpers.direct_write cluster ~key:"on-learner" ~value:"v")

let test_conflicting_writes_same_key () =
  (* Two clients writing the same row: the second prepare hits the row
     lock held by the first in-pipeline transaction and is rejected
     (MySQL would block; our model surfaces it as a lock-wait error). *)
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let outcomes = ref [] in
  for i = 1 to 2 do
    Myraft.Server.submit_write primary ~table:"t"
      ~ops:[ Binlog.Event.Insert { key = "hot"; value = string_of_int i } ]
      ~reply:(fun o -> outcomes := o :: !outcomes)
  done;
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(5.0 *. s) (fun () ->
         List.length !outcomes = 2));
  let committed =
    List.length
      (List.filter (fun o -> match o with Myraft.Wire.Committed _ -> true | _ -> false)
         !outcomes)
  in
  Alcotest.(check int) "exactly one commits" 1 committed;
  (* after the first settles, the key is writable again *)
  Helpers.check_ok "retry succeeds" (Helpers.direct_write cluster ~key:"hot" ~value:"3")

let test_group_commit_under_concurrency () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let done_count = ref 0 in
  for i = 1 to 64 do
    Myraft.Server.submit_write primary ~table:"t"
      ~ops:[ Binlog.Event.Insert { key = Printf.sprintf "c%d" i; value = "v" } ]
      ~reply:(fun _ -> incr done_count)
  done;
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(10.0 *. s) (fun () -> !done_count = 64));
  Alcotest.(check int) "all 64 settle" 64 !done_count;
  let p = Myraft.Server.pipeline primary in
  Alcotest.(check bool) "grouped into fewer flushes" true
    (Myraft.Pipeline.groups_formed p < 64 + 5 (* bootstrap overhead slack *));
  Alcotest.(check bool) "mean group size > 1" true (Myraft.Pipeline.mean_group_size p > 1.5)

let test_demoted_primary_aborts_in_flight () =
  (* Writes waiting for consensus on a quiesced/demoted primary are
     aborted and rolled back online (§3.3 demotion step 1). *)
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  (* cut the primary off so its writes can never reach consensus *)
  Myraft.Cluster.isolate cluster "mysql1";
  let outcome = ref None in
  Myraft.Server.submit_write primary ~table:"t"
    ~ops:[ Binlog.Event.Insert { key = "doomed"; value = "v" } ]
    ~reply:(fun o -> outcome := Some o);
  Myraft.Cluster.run_for cluster (300.0 *. ms);
  Alcotest.(check bool) "txn parked in pipeline" true
    (Myraft.Pipeline.in_flight (Myraft.Server.pipeline primary) > 0);
  (* failover happens elsewhere; the healed old primary sees the higher
     term and demotes, aborting the write *)
  ignore (wait_new_primary cluster ~not_this:"mysql1");
  Myraft.Cluster.heal cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(15.0 *. s) (fun () -> !outcome <> None));
  (match !outcome with
  | Some (Myraft.Wire.Rejected _) -> ()
  | Some (Myraft.Wire.Committed _) -> Alcotest.fail "doomed write committed"
  | None -> Alcotest.fail "doomed write never settled");
  Alcotest.(check int) "nothing left prepared" 0
    (List.length (Storage.Engine.prepared_gtids (Myraft.Server.storage primary)))

let test_read_your_writes_on_replica () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  Helpers.check_ok "write" (Helpers.direct_write cluster ~key:"ryw" ~value:"42");
  let replica = Option.get (Myraft.Cluster.server cluster "mysql2") in
  (* the client knows its write's GTID (mysql1:1); session consistency on
     the replica = WAIT_FOR_EXECUTED_GTID_SET then read *)
  let result = ref None in
  Myraft.Server.wait_for_executed_gtid replica
    (Binlog.Gtid.make ~source:"mysql1" ~gno:1)
    ~timeout:(5.0 *. s)
    ~k:(fun arrived ->
      result := Some (if arrived then Myraft.Server.read replica ~table:"t" ~key:"ryw"
                      else Error "gtid wait timed out"));
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(10.0 *. s) (fun () -> !result <> None));
  (match !result with
  | Some (Ok (Some "42")) -> ()
  | Some (Ok other) ->
    Alcotest.failf "stale read: %s" (Option.value other ~default:"<none>")
  | Some (Error e) -> Alcotest.failf "read failed: %s" e
  | None -> Alcotest.fail "wait never completed")

let test_gtid_wait_times_out_for_unknown () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let replica = Option.get (Myraft.Cluster.server cluster "mysql2") in
  let result = ref None in
  Myraft.Server.wait_for_executed_gtid replica
    (Binlog.Gtid.make ~source:"ghost" ~gno:1)
    ~timeout:(200.0 *. ms)
    ~k:(fun arrived -> result := Some arrived);
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(5.0 *. s) (fun () -> !result <> None));
  Alcotest.(check (option bool)) "times out" (Some false) !result

let test_reads_on_crashed_server_fail () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  Myraft.Cluster.crash cluster "mysql2";
  let replica = Option.get (Myraft.Cluster.server cluster "mysql2") in
  match Myraft.Server.read replica ~table:"t" ~key:"x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read served by a crashed server"

let suites =
  [
    ( "myraft.edge",
      [
        Alcotest.test_case "repeated failovers converge" `Quick
          test_repeated_failovers_converge;
        Alcotest.test_case "leader-region partition: consistency over availability" `Quick
          test_leader_region_partition_chooses_consistency;
        Alcotest.test_case "learner promoted then leads" `Quick
          test_learner_promoted_then_leads;
        Alcotest.test_case "conflicting writes on one key" `Quick
          test_conflicting_writes_same_key;
        Alcotest.test_case "group commit under concurrency" `Quick
          test_group_commit_under_concurrency;
        Alcotest.test_case "demoted primary aborts in-flight" `Quick
          test_demoted_primary_aborts_in_flight;
        Alcotest.test_case "read-your-writes on replica" `Quick
          test_read_your_writes_on_replica;
        Alcotest.test_case "gtid wait times out" `Quick test_gtid_wait_times_out_for_unknown;
        Alcotest.test_case "reads fail on crashed server" `Quick
          test_reads_on_crashed_server_fail;
      ] );
  ]
