(* One modelled MySQL fleet, built the way a standalone
   [Myraft.Cluster.create ~seed] builds itself — same engine seed, same
   order of RNG splits — except that the benchmark owns the
   [Sim.Network] and hands the cluster a transport over it through
   [~shared].  Owning the transport puts the network and every node's
   message handler behind closures the benchmark controls, so the traced
   run can time them without touching the program.

   The workload layer is reached the same way: [backend] is
   [Workload.Backend.myraft] with its closures wrapped to feed the
   Ledger and, when tracing, to open spans. *)

(* What the wrappers need; built before the cluster, which is built
   over a transport that closes over it. *)
type ctx = {
  engine : Sim.Engine.t;
  tracer : Tracer.t option;
  ledger : Ledger.t;
  tracks : (string, int) Hashtbl.t; (* node or client id -> trace track *)
  mutable track_names : string list; (* newest first; track 0 is "sim" *)
  (* traced-run samplers: peaks of the event queue and of the
     pipeline-queue and applier-lag gauges, read at layer boundaries *)
  mutable pending_peak : int;
  mutable gauges : (Myraft.Server.t * Obs.Metrics.gauge * Obs.Metrics.gauge) list;
      (* per server: pipeline queue depth, applier lag *)
  mutable queue_peak : float;
  mutable lag_peak : float;
  (* process CPU and wall time inside [run] *)
  mutable run_cpu : float;
  mutable run_wall : float;
}

type t = {
  ctx : ctx;
  cluster : Myraft.Cluster.t;
  network : Myraft.Wire.t Sim.Network.t;
  backend : Workload.Backend.t;
}

let track ctx id =
  match Hashtbl.find_opt ctx.tracks id with
  | Some i -> i
  | None ->
    let i = Hashtbl.length ctx.tracks in
    Hashtbl.replace ctx.tracks id i;
    ctx.track_names <- id :: ctx.track_names;
    i

let track_names t = Array.of_list (List.rev t.ctx.track_names)

(* Span kind and identifier of a message: the OpId (term, index) for
   Raft traffic, (client track, request id) for client traffic.  The ids
   land in [ids] to keep the traced path allocation-free. *)
let ids = [| 0; 0 |]

let rec raft_kind (m : Raft.Message.t) =
  match m with
  | Raft.Message.Append_entries ae ->
    ids.(0) <- ae.term;
    ids.(1) <- ae.prev_opid.Binlog.Opid.index + 1;
    Tracer.k_ae
  | Append_entries_response r ->
    ids.(0) <- r.term;
    ids.(1) <- r.last_log_index;
    Tracer.k_ae_resp
  | Request_vote v ->
    ids.(0) <- v.term;
    ids.(1) <- v.last_opid.Binlog.Opid.index;
    Tracer.k_vote
  | Request_vote_response v ->
    ids.(0) <- v.term;
    ids.(1) <- 0;
    Tracer.k_vote
  | Run_mock_election { term; snapshot; _ } ->
    ids.(0) <- term;
    ids.(1) <- snapshot.Binlog.Opid.index;
    Tracer.k_vote
  | Mock_election_result { votes; _ } ->
    ids.(0) <- 0;
    ids.(1) <- votes;
    Tracer.k_vote
  | Read_index_request { rid; _ } ->
    ids.(0) <- 0;
    ids.(1) <- rid;
    Tracer.k_read_index
  | Read_index_reply { rid; index; _ } ->
    ids.(0) <- index;
    ids.(1) <- rid;
    Tracer.k_read_index
  | Install_snapshot s ->
    ids.(0) <- s.term;
    ids.(1) <- s.offset;
    Tracer.k_snapshot
  | Install_snapshot_response r ->
    ids.(0) <- r.term;
    ids.(1) <- r.received_through;
    Tracer.k_snapshot
  | Timeout_now { term } ->
    ids.(0) <- term;
    ids.(1) <- 0;
    Tracer.k_other
  | Proxied { inner; _ } -> raft_kind inner

let wire_kind ctx (msg : Myraft.Wire.t) =
  match msg with
  | Myraft.Wire.Raft_msg m -> raft_kind m
  | Write_request { write_id; client; _ } ->
    ids.(0) <- track ctx client;
    ids.(1) <- write_id;
    Tracer.k_write_req
  | Read_request { read_id; read_client; _ } ->
    ids.(0) <- track ctx read_client;
    ids.(1) <- read_id;
    Tracer.k_read_req
  | Write_reply { write_id; _ } ->
    ids.(0) <- 0;
    ids.(1) <- write_id;
    Tracer.k_other
  | Read_reply { read_id; _ } ->
    ids.(0) <- 0;
    ids.(1) <- read_id;
    Tracer.k_other

(* The transport a standalone cluster builds over its own network,
   with sends and delivered messages optionally spanned. *)
let transport ctx ~topology ~network ~members =
  let plain_send ~src ~dst msg =
    Sim.Network.send network ~src ~dst ~size:(Myraft.Wire.size msg) msg
  in
  let tr_send, tr_register =
    match ctx.tracer with
    | None -> (plain_send, fun id handler -> Sim.Network.register network id handler)
    | Some tr ->
      let traced_send ~src ~dst msg =
        if tr.Tracer.on then begin
          ignore (wire_kind ctx msg);
          let pending = Sim.Engine.pending ctx.engine in
          if pending > ctx.pending_peak then ctx.pending_peak <- pending;
          Tracer.enter tr ~kind:Tracer.k_net_send ~track:(track ctx src) ~id1:ids.(0)
            ~id2:ids.(1) ~vt:(Sim.Engine.now ctx.engine);
          plain_send ~src ~dst msg;
          Tracer.leave tr
        end
        else plain_send ~src ~dst msg
      in
      let traced_register id handler =
        let is_member = List.mem id members in
        let tk = track ctx id in
        Sim.Network.register network id (fun ~src msg ->
            if tr.Tracer.on then begin
              let kind = wire_kind ctx msg in
              let kind = if is_member then kind else Tracer.k_wl_recv in
              Tracer.enter tr ~kind ~track:tk ~id1:ids.(0) ~id2:ids.(1)
                ~vt:(Sim.Engine.now ctx.engine);
              handler ~src msg;
              Tracer.leave tr
            end
            else handler ~src msg)
      in
      (traced_send, traced_register)
  in
  {
    Myraft.Cluster.tr_send;
    tr_register;
    tr_add_node =
      (fun ~id ~region ->
        if not (Sim.Topology.mem topology id) then Sim.Topology.add_node topology ~id ~region);
    tr_set_down = (fun id -> Sim.Network.set_down network id);
    tr_set_up = (fun id -> Sim.Network.set_up network id);
    tr_isolate = (fun id -> Sim.Network.isolate_node network id);
    tr_heal = (fun id -> Sim.Network.heal_node network id);
    tr_set_link_latency =
      (fun ~a ~b ~latency -> Sim.Network.set_link_latency network ~a ~b ~latency);
  }

(* [Workload.Backend.myraft] with every closure feeding the ledger and,
   when tracing, spanned as the workload layer. *)
let wrap_backend ctx (b : Workload.Backend.t) =
  (* open a span if recording; says whether one was opened *)
  let opened kind ~id ~id2 =
    match ctx.tracer with
    | Some tr when tr.Tracer.on ->
      List.iter
        (fun (srv, queue, lag) ->
          ctx.queue_peak <- Float.max ctx.queue_peak (Obs.Metrics.gauge_value queue);
          (* the primary's applier is idle and its gauge stale *)
          if Myraft.Server.role srv <> Myraft.Server.Primary then
            ctx.lag_peak <- Float.max ctx.lag_peak (Obs.Metrics.gauge_value lag))
        ctx.gauges;
      let tk = track ctx id in
      Tracer.enter tr ~kind ~track:tk ~id1:tk ~id2 ~vt:(Sim.Engine.now ctx.engine);
      true
    | _ -> false
  in
  let close opened = if opened then Option.iter Tracer.leave ctx.tracer in
  {
    b with
    Workload.Backend.register_client =
      (fun ~id ~region ~on_reply ~on_read_reply ->
        let c = Ledger.client ctx.ledger id in
        b.Workload.Backend.register_client ~id ~region
          ~on_reply:(fun ~write_id ~ok ~gtid ->
            Ledger.write_reply ctx.ledger c ~write_id ~ok ~gtid;
            let o = opened Tracer.k_wl_reply ~id ~id2:write_id in
            on_reply ~write_id ~ok ~gtid;
            close o)
          ~on_read_reply:(fun ~read_id ~outcome ->
            Ledger.read_reply ctx.ledger c ~read_id ~outcome;
            let o = opened Tracer.k_wl_reply ~id ~id2:read_id in
            on_read_reply ~read_id ~outcome;
            close o));
    send_write =
      (fun ~client ~write_id ~table ~ops ->
        let c = Ledger.client ctx.ledger client in
        let o = opened Tracer.k_wl_send ~id:client ~id2:write_id in
        let sent = b.Workload.Backend.send_write ~client ~write_id ~table ~ops in
        close o;
        Ledger.write_sent ctx.ledger c ~write_id ~sent;
        sent);
    send_read =
      (fun ~client ~read_id ~level ~table ~key ~target ->
        let c = Ledger.client ctx.ledger client in
        let o = opened Tracer.k_wl_send ~id:client ~id2:read_id in
        let sent = b.Workload.Backend.send_read ~client ~read_id ~level ~table ~key ~target in
        close o;
        Ledger.read_sent ctx.ledger c ~read_id ~sent;
        sent);
  }

let create ?tracer ~seed ~params ~latency ~replicaset members =
  (* Same construction order as Cluster.create's standalone branch:
     engine, topology, network (one RNG split), trace, discovery. *)
  let engine = Sim.Engine.create ~seed () in
  let topology = Sim.Topology.create () in
  List.iter
    (fun (s : Myraft.Cluster.member_spec) ->
      Sim.Topology.add_node topology ~id:s.spec_id ~region:s.spec_region)
    members;
  let network = Sim.Network.create engine topology ~latency () in
  let trace = Sim.Trace.create ~echo:false engine in
  let discovery = Myraft.Service_discovery.create engine in
  let tracks = Hashtbl.create 32 in
  Hashtbl.replace tracks "sim" 0;
  let ctx =
    {
      engine;
      tracer;
      ledger = Ledger.create engine;
      tracks;
      track_names = [ "sim" ];
      pending_peak = 0;
      gauges = [];
      queue_peak = 0.0;
      lag_peak = 0.0;
      run_cpu = 0.0;
      run_wall = 0.0;
    }
  in
  let member_ids = List.map (fun (s : Myraft.Cluster.member_spec) -> s.spec_id) members in
  let shared =
    {
      Myraft.Cluster.sh_engine = engine;
      sh_trace = trace;
      sh_discovery = discovery;
      sh_tracebuf = Obs.Tracebuf.create ();
      sh_group = 0;
      sh_clock_of = (fun _ -> None);
      sh_transport = transport ctx ~topology ~network ~members:member_ids;
    }
  in
  let cluster = Myraft.Cluster.create ~params ~shared ~replicaset ~members () in
  let backend = wrap_backend ctx (Workload.Backend.myraft cluster) in
  ctx.gauges <-
    List.map
      (fun srv ->
        let m = Myraft.Server.metrics srv in
        (srv, Obs.Metrics.gauge m "pipeline.queue_depth", Obs.Metrics.gauge m "applier.lag"))
      (Myraft.Cluster.servers cluster);
  { ctx; cluster; network; backend }

(* A generator client on the wrapped backend, registered with the
   ledger under the generator's own timeouts. *)
let generator ?client_latency ?(write_timeout = 5.0 *. Sim.Engine.s)
    ?(read_timeout = 5.0 *. Sim.Engine.s) ?read_ratio ?read_level ?read_target ?value_mu
    ?value_sigma t ~client_id ~region =
  Ledger.add_client t.ctx.ledger ~id:client_id ~write_timeout ~read_timeout;
  Workload.Generator.create ~backend:t.backend ~client_id ~region ?client_latency
    ~write_timeout ~read_timeout ?read_ratio ?read_level ?read_target ?value_mu ?value_sigma
    ()

(* Time spent advancing the simulation or driving the program (crash,
   restart) inside the measured window goes through [run]: it is timed
   on the process CPU clock, and when tracing it is one [sim.run] span
   whose self time is the event kernel plus timer-driven work. *)
let run t f =
  let ctx = t.ctx in
  let cpu0 = Sys.time () and wall0 = Unix.gettimeofday () in
  let r =
    match ctx.tracer with
    | Some tr when tr.Tracer.on ->
      Tracer.enter tr ~kind:Tracer.k_run ~track:0 ~id1:0 ~id2:0 ~vt:(Sim.Engine.now ctx.engine);
      let r = f () in
      Tracer.leave tr;
      r
    | _ -> f ()
  in
  ctx.run_cpu <- ctx.run_cpu +. (Sys.time () -. cpu0);
  ctx.run_wall <- ctx.run_wall +. (Unix.gettimeofday () -. wall0);
  r
