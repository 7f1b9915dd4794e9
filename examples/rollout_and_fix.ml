(* Operations tour: roll a replicaset out from semi-sync to MyRaft with
   enable-raft (§5.2), replace a failed member with automation (§2.2),
   then shatter the FlexiRaft data quorum and restore availability with
   Quorum Fixer (§5.3).

     dune exec examples/rollout_and_fix.exe *)

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
  ]

let () =
  print_endline "== enable-raft rollout + Quorum Fixer ==";

  (* A semi-sync replicaset serving traffic. *)
  let ss =
    Semisync.Cluster.create ~seed:9 ~replicaset:"rs42" ~members:(members ()) ()
  in
  Semisync.Cluster.bootstrap ss ~leader_id:"mysql1";
  let backend = Workload.Backend.semisync ss in
  let load =
    Workload.Generator.create ~backend ~client_id:"app" ~region:"r1"
      ~client_latency:(200.0 *. Sim.Engine.us) ()
  in
  Workload.Generator.start_open_loop load ~rate_per_s:300.0;
  Semisync.Cluster.run_for ss (5.0 *. s);
  Workload.Generator.stop load;
  Semisync.Cluster.run_for ss (1.0 *. s);
  Printf.printf "\nsemi-sync replicaset before rollout:\n%s\n"
    (Semisync.Cluster.describe ss);
  Printf.printf "workload: %s\n" (Workload.Generator.summary load);

  (* enable-raft: lock, safety checks, plugin load, stop writes + catch
     up + raft bootstrap, publish. *)
  print_endline "\nrunning enable-raft...";
  let locks = Control.Lock_service.create (Semisync.Cluster.engine ss) in
  (match Control.Enable_raft.run ~members:(members ()) ~lock_service:locks ss with
  | Error e -> failwith ("enable-raft failed: " ^ e)
  | Ok (cluster, report) ->
    List.iter
      (fun (step, duration) -> Printf.printf "  step %-16s %8.0f ms\n" step (duration /. ms))
      report.Control.Enable_raft.steps;
    Printf.printf "  migrated %d transactions; write unavailability %.1f s\n"
      report.Control.Enable_raft.transactions_migrated
      (report.Control.Enable_raft.write_unavailability_us /. s);
    Printf.printf "\nMyRaft replicaset after rollout:\n%s\n" (Myraft.Cluster.describe cluster);

    (* Automation replaces a failed logtailer (§2.2): the planner's
       replacement target, executed one membership change at a time. *)
    print_endline "\nlt1b fails; automation replaces it...";
    Myraft.Cluster.crash cluster "lt1b";
    Myraft.Cluster.run_for cluster (2.0 *. s);
    let started = Myraft.Cluster.now cluster in
    let cfg = Option.get (Reconfig.Healer.newest_config cluster) in
    let lt1b = Option.get (Raft.Types.find_member cfg "lt1b") in
    (match
       Result.bind
         (Reconfig.Planner.replace cfg ~dead:"lt1b"
            ~by:{ lt1b with Raft.Types.id = "lt1c" })
         (fun target -> Reconfig.Healer.apply_target cluster ~target)
     with
    | Ok steps ->
      Printf.printf "  replaced lt1b with lt1c in %d steps, %.0f ms\n" steps
        ((Myraft.Cluster.now cluster -. started) /. ms)
    | Error e -> failwith ("replacement failed: " ^ e));

    (* Shatter the data quorum: the leader's region loses both live
       logtailers at once (correlated failure). *)
    print_endline "\nshattering the quorum: crashing lt1a and lt1c...";
    Myraft.Cluster.crash cluster "lt1a";
    Myraft.Cluster.crash cluster "lt1c";
    (* the leader also dies; no election can succeed with r1 dark *)
    Myraft.Cluster.crash cluster "mysql1";
    Myraft.Cluster.run_for cluster (10.0 *. s);
    Printf.printf "  leader after 10s without quorum: %s\n"
      (Option.value ~default:"NONE (shattered quorum)"
         (Myraft.Cluster.raft_leader cluster));

    (* Quorum Fixer: pick the longest healthy log, force the election
       quorum, promote, reset. *)
    print_endline "\nrunning Quorum Fixer...";
    (match Control.Quorum_fixer.run cluster with
    | Ok r ->
      Printf.printf "  chose %s (last opid %s) among %d healthy; fixed in %.0f ms\n"
        r.Control.Quorum_fixer.chosen
        (Binlog.Opid.to_string r.Control.Quorum_fixer.chosen_last_opid)
        r.Control.Quorum_fixer.healthy_members
        (r.Control.Quorum_fixer.duration_us /. ms)
    | Error e -> Printf.printf "  quorum fixer refused: %s\n" e);
    ignore
      (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
           Myraft.Cluster.primary cluster <> None));
    Printf.printf "\nfinal ring:\n%s\n" (Myraft.Cluster.describe cluster));
  print_endline "\ndone."
