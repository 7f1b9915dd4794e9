(* Downstream services tour: a CDC tailer and the backup service riding
   the preserved binlog format (§3), surviving a failover — including a
   transaction that gets truncated and must never reach the stream — and
   a backup-seeded member replacement after the ring purged its history.

     dune exec examples/cdc_and_backup.exe *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* A failed check is reported and turns the exit status non-zero. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      print_endline msg)
    fmt

let write cluster key value =
  match Myraft.Cluster.primary cluster with
  | None -> false
  | Some srv ->
    let r = ref None in
    Myraft.Server.submit_write srv ~table:"accounts"
      ~ops:[ Binlog.Event.Insert { key; value } ]
      ~reply:(fun o -> r := Some o);
    ignore
      (Myraft.Cluster.run_until cluster ~step:ms ~timeout:(5.0 *. s) (fun () -> !r <> None));
    match !r with Some (Myraft.Wire.Committed _) -> true | _ -> false

let () =
  print_endline "== CDC and backup over the preserved binlog ==";
  let params = { Myraft.Params.default with Myraft.Params.max_binlog_bytes = 8_192 } in
  let cluster =
    Myraft.Cluster.create ~seed:29 ~params ~replicaset:"cdc-demo"
      ~members:(Myraft.Cluster.small_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";

  (* a CDC consumer tails mysql1's binlog *)
  let cdc = Downstream.Cdc.start ~source:"mysql1" cluster in
  for i = 1 to 25 do
    ignore (write cluster (Printf.sprintf "acct%03d" i) "100")
  done;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  Printf.printf "CDC streamed %d records from %s; first: %s\n"
    (Downstream.Cdc.record_count cdc) (Downstream.Cdc.source cdc)
    (match Downstream.Cdc.records cdc with
    | r :: _ ->
      Printf.sprintf "opid %s gtid %s"
        (Binlog.Opid.to_string r.Downstream.Cdc.opid)
        (Binlog.Gtid.to_string r.Downstream.Cdc.gtid)
    | [] -> "<none>");

  (* a transaction strands on the isolated primary and is truncated —
     the CDC stream must never contain it *)
  print_endline "\nisolating mysql1 with a stranded transaction; failover follows...";
  let mysql1 = Option.get (Myraft.Cluster.server cluster "mysql1") in
  Myraft.Cluster.isolate cluster "mysql1";
  Myraft.Server.submit_write mysql1 ~table:"accounts"
    ~ops:[ Binlog.Event.Insert { key = "stranded"; value = "???" } ]
    ~reply:(fun _ -> ());
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.heal cluster "mysql1";
  for i = 26 to 30 do
    ignore (write cluster (Printf.sprintf "acct%03d" i) "100")
  done;
  Myraft.Cluster.run_for cluster (3.0 *. s);
  Downstream.Cdc.stop cdc;
  Printf.printf "after failover the tailer re-attached %d time(s) to %s\n"
    (Downstream.Cdc.reattachments cdc) (Downstream.Cdc.source cdc);
  let stranded =
    Binlog.Gtid_set.contains
      (Downstream.Cdc.seen_gtids cdc)
      (Binlog.Gtid.make ~source:"mysql1" ~gno:26)
  in
  Printf.printf "stranded txn in stream: %b (must be false)\n" stranded;
  if stranded then fail "STREAM CONTAINS A TRUNCATED TXN";
  (match Downstream.Cdc.validate cdc with
  | Ok n -> Printf.printf "stream valid: %d records, OpId-ordered, exactly-once\n" n
  | Error e -> fail "STREAM INVALID: %s" e);

  (* backup a replica, let the janitor purge the ring's history, then
     replace a member seeded from the backup *)
  print_endline "\ntaking a backup from mysql1 (now a replica)...";
  let backup = Result.get_ok (Downstream.Backup.take mysql1) in
  Printf.printf "backup: %d entries up to %s, gtid set %s\n"
    (Downstream.Backup.entry_count backup)
    (Binlog.Opid.to_string (Downstream.Backup.position backup))
    (Binlog.Gtid_set.to_string (Downstream.Backup.gtid_executed backup));
  (match
     Downstream.Backup.verify_against backup
       (Option.get (Myraft.Cluster.primary cluster))
   with
  | Ok () -> print_endline "backup verified against the live primary"
  | Error e -> fail "BACKUP DIVERGES: %s" e);

  print_endline "\njanitor rotates and purges the ring's history...";
  let janitor = Control.Automation.start_binlog_janitor ~keep_files:2 cluster in
  for i = 31 to 80 do
    ignore (write cluster (Printf.sprintf "acct%03d" i) "100");
    if i mod 10 = 0 then Myraft.Cluster.run_for cluster (3.0 *. s)
  done;
  Myraft.Cluster.run_for cluster (5.0 *. s);
  Control.Automation.stop_janitor janitor;
  Printf.printf "rotations=%d purged files=%d\n"
    (Control.Automation.rotations janitor)
    (Control.Automation.purges janitor);

  print_endline "\nreplacing mysql3 with a backup-seeded newcomer...";
  let backup2 = Result.get_ok (Downstream.Backup.take mysql1) in
  Myraft.Cluster.crash cluster "mysql3";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let started = Myraft.Cluster.now cluster in
  (* allocate the newcomer outside the ring and seed it from the backup;
     the healer then finds it provisioned and only drives membership *)
  Myraft.Cluster.add_server cluster (Myraft.Cluster.mysql ~voter:false "mysql3b" "r1");
  (match
     Downstream.Backup.restore_into_server backup2
       (Option.get (Myraft.Cluster.server cluster "mysql3b"))
   with
  | Ok () -> ()
  | Error e -> fail "backup restore failed: %s" e);
  let cfg = Option.get (Reconfig.Healer.newest_config cluster) in
  let mysql3 = Option.get (Raft.Types.find_member cfg "mysql3") in
  (match
     Result.bind
       (Reconfig.Planner.replace cfg ~dead:"mysql3"
          ~by:{ mysql3 with Raft.Types.id = "mysql3b" })
       (fun target -> Reconfig.Healer.apply_target cluster ~target)
   with
  | Ok steps ->
    Printf.printf "replaced mysql3 with mysql3b in %d steps, %.0f ms\n" steps
      ((Myraft.Cluster.now cluster -. started) /. ms)
  | Error e -> fail "replacement failed: %s" e);
  let fresh = Option.get (Myraft.Cluster.server cluster "mysql3b") in
  let acct005 =
    Storage.Engine.get (Myraft.Server.storage fresh) ~table:"accounts" ~key:"acct005"
  in
  Printf.printf "newcomer reads acct005 = %s (restored from backup)\n"
    (Option.value ~default:"<missing>" acct005);
  if acct005 = None then fail "NEWCOMER MISSING RESTORED ROW";
  Printf.printf "\nfinal ring:\n%s\n" (Myraft.Cluster.describe cluster);
  if !failures > 0 then exit 1
