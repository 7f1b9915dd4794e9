(* The MySQL replication command surface under MyRaft (§3).

   "MySQL commands like SHOW BINARY LOGS, SHOW MASTER STATUS, SHOW
   REPLICA STATUS, PURGE LOGS TO and FLUSH BINARY LOGS continue to work
   in MyRaft.  Some replication commands like CHANGE MASTER TO, RESET
   MASTER and RESET REPLICATION were adjusted or disallowed because
   these operations are handled by Raft." *)

type result =
  | Rows of { header : string list; rows : string list list }
  | Ok_affected of string
  | Disallowed of string

let render = function
  | Rows { header; rows } ->
    let line cells = "| " ^ String.concat " | " cells ^ " |" in
    String.concat "\n" (line header :: List.map line rows)
  | Ok_affected msg -> "Query OK: " ^ msg
  | Disallowed msg -> "ERROR: " ^ msg

(* SHOW BINARY LOGS: the log file inventory, as maintained in the index
   file. *)
let show_binary_logs server =
  Rows
    {
      header = [ "Log_name"; "File_size"; "Entry_count" ];
      rows =
        List.map
          (fun (name, size, entries) ->
            [ name; string_of_int size; string_of_int entries ])
          (Binlog.Log_store.file_list (Server.log server));
    }

(* SHOW MASTER STATUS: current file, position (index), and executed GTID
   set. *)
let show_master_status server =
  let log = Server.log server in
  let file =
    match List.rev (Binlog.Log_store.file_names log) with f :: _ -> f | [] -> "<none>"
  in
  Rows
    {
      header = [ "File"; "Position"; "Executed_Gtid_Set" ];
      rows =
        [
          [
            file;
            string_of_int (Binlog.Log_store.last_index log);
            Binlog.Gtid_set.to_string (Server.gtid_executed server);
          ];
        ];
    }

(* SHOW REPLICA STATUS: role, leader, applier position and lag — the
   fields our automation actually reads. *)
let show_replica_status server =
  let raft = Server.raft server in
  let applied =
    if Server.role server = Server.Replica then Applier.applied_index (Server.applier server)
    else Raft.Node.commit_index raft
  in
  Rows
    {
      header =
        [ "Role"; "Raft_Role"; "Raft_Term"; "Leader"; "Commit_Index"; "Applied_Index"; "Lag" ];
      rows =
        [
          [
            Server.role_to_string (Server.role server);
            Raft.Types.role_to_string (Raft.Node.role raft);
            string_of_int (Raft.Node.current_term raft);
            Option.value (Raft.Node.leader_id raft) ~default:"<unknown>";
            string_of_int (Raft.Node.commit_index raft);
            string_of_int applied;
            string_of_int (max 0 (Raft.Node.commit_index raft - applied));
          ];
        ];
    }

let flush_binary_logs server =
  match Server.flush_binary_logs server with
  | Ok () -> Ok_affected "rotate event submitted for consensus commit"
  | Error e -> Disallowed e

(* Replication topology is the Raft ring's business now. *)
let change_master_to _server =
  Disallowed "CHANGE MASTER TO is disallowed: replication topology is managed by Raft"

let reset_master _server =
  Disallowed "RESET MASTER is disallowed: the binary log is Raft's replicated log"

let reset_replication _server =
  Disallowed "RESET REPLICA is disallowed: replication state is managed by Raft"
