(* Client-side availability probe for a MyRaft replicaset.

   A probe client repeatedly attempts a small write against whichever
   node service discovery currently advertises as primary.  Write
   downtime is *measured*, not inferred: it is the largest gap between
   consecutive successful commits in an observation window — exactly the
   client-side downtime metric of the paper's shadow testing (§5.1) and
   the promotion/failover evaluation (Table 2).

   The measurement machinery is the generic [Sim.Probe]; this module only
   supplies the MyRaft-specific issue path (resolve primary through
   service discovery, send a Wire write, match the reply). *)

type t = {
  probe : Sim.Probe.t;
  client_id : string;
  outstanding : (int, bool -> unit) Hashtbl.t;
  mutable next_id : int;
}

let successes t = Sim.Probe.successes t.probe

let stop t = Sim.Probe.stop t.probe

let max_downtime t = Sim.Probe.max_downtime t.probe

let start ?(region = "r1") ?(probe_interval = 5.0 *. Sim.Engine.ms)
    ?(write_timeout = 1.0 *. Sim.Engine.s) ?(client_latency = 500.0 *. Sim.Engine.us)
    cluster ~client_id =
  let outstanding = Hashtbl.create 64 in
  Cluster.register_client cluster ~id:client_id ~region ~handler:(fun ~src:_ msg ->
      match msg with
      | Wire.Write_reply { write_id; outcome } -> (
        match Hashtbl.find_opt outstanding write_id with
        | Some settle ->
          Hashtbl.remove outstanding write_id;
          settle (match outcome with Wire.Committed _ -> true | Wire.Rejected _ -> false)
        | None -> ())
      | Wire.Raft_msg _ | Wire.Write_request _ | Wire.Read_request _ | Wire.Read_reply _
        -> ());
  (* Pin the probe close to every ring member so probe RTT does not
     dominate the measured downtime. *)
  List.iter
    (fun member ->
      Cluster.set_link_latency cluster ~a:client_id ~b:member ~latency:client_latency)
    (Cluster.member_ids cluster);
  let next_id = ref 1 in
  let issue ~on_outcome =
    match
      Service_discovery.primary_of (Cluster.discovery cluster)
        ~replicaset:(Cluster.replicaset_name cluster)
    with
    | None -> on_outcome false
    | Some primary ->
      let write_id = !next_id in
      incr next_id;
      Hashtbl.replace outstanding write_id on_outcome;
      let key = Printf.sprintf "probe-%s-%d" client_id write_id in
      Cluster.send_from_client cluster ~client:client_id ~dst:primary
        (Wire.Write_request
           {
             write_id;
             table = "probe";
             ops = [ Binlog.Event.Insert { key; value = "x" } ];
             client = client_id;
           })
  in
  let probe =
    Sim.Probe.start ~interval:probe_interval ~timeout:write_timeout
      (Cluster.engine cluster) ~issue
  in
  { probe; client_id; outstanding; next_id = 1 }
