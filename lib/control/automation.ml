(* Binlog automation (§A.1): the external janitor that rotates and purges
   the primary's binlog.  Membership automation (§2.2) is
   [Reconfig.Healer] executing [Reconfig.Planner] targets. *)

let s = Sim.Engine.s

(* §A.1's external rotation automation: watch the primary's current
   binlog file size in a monitoring loop and call FLUSH BINARY LOGS when
   it exceeds the budget; opportunistically PURGE files that Raft's
   region watermarks have cleared, keeping at most [keep_files]. *)
type janitor = { mutable running : bool; mutable rotations : int; mutable purges : int }

let rotations j = j.rotations

let purges j = j.purges

let stop_janitor j = j.running <- false

let current_file_bytes server =
  match List.rev (Binlog.Log_store.file_list (Myraft.Server.log server)) with
  | (_, size, _) :: _ -> size
  | [] -> 0

let start_binlog_janitor ?(interval = 2.0 *. s) ?(keep_files = 3) cluster =
  let j = { running = true; rotations = 0; purges = 0 } in
  let engine = Myraft.Cluster.engine cluster in
  let rec tick () =
    if j.running then begin
      (match Myraft.Cluster.primary cluster with
      | Some primary ->
        let budget = (Myraft.Cluster.params cluster).Myraft.Params.max_binlog_bytes in
        if current_file_bytes primary > budget then (
          match Myraft.Server.flush_binary_logs primary with
          | Ok () -> j.rotations <- j.rotations + 1
          | Error _ -> ());
        if
          List.length (Binlog.Log_store.file_names (Myraft.Server.log primary))
          > keep_files
        then begin
          let purged = Myraft.Server.purge_binary_logs primary in
          if purged > 0 then j.purges <- j.purges + purged
        end
      | None -> ());
      ignore (Sim.Engine.schedule engine ~delay:interval tick)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:interval tick);
  j
