(* The benchmark's three workloads, each on the paper's §6.1 topology
   ([Myraft.Cluster.paper_members]: six regions, each a MySQL server
   and two logtailers, plus two learners; mysql1 in r1 leads).

   Every workload reports every end-to-end metric, so each carries the
   instruments the others' metrics need, at a rate too low to load it:
   an availability probe (one write every 5 ms; its largest success gap
   per 100 ms slice is the write stall on workloads without a failover)
   and, where the traffic has no reads, an open-loop linearizable read
   probe at the primary (1000/s under commit-saturate, 200/s under
   failover-loop). *)

let s = Sim.Engine.s

let ms = Sim.Engine.ms

let us = Sim.Engine.us

type load = {
  gens : Workload.Generator.t list;
  probe : Myraft.Availability.t;
}

type spec = {
  name : string;
  replicaset : string;
  params : Myraft.Params.t;
  latency : unit -> Sim.Latency.t;
  configure : Myraft.Cluster.t -> unit; (* link overrides, before bootstrap *)
  warmup : float; (* virtual us *)
  subruns : int; (* independent fleets per untraced run *)
  (* window length per real second of [--seconds] — virtual us, or
     incidents for failover-loop — calibrated on a 2-core x86 box so one
     run measures about that long; fixed here so a run's work depends on
     its arguments only *)
  window_per_s : float;
  start : Fleet.t -> load;
  (* runs the measured window through [Fleet.run]; returns the
     (start, end) virtual intervals whose largest probe-success gap is a
     downtime sample *)
  window : Fleet.t -> load -> Chaos.Invariants.t -> length:float -> (float * float) list;
}

let rows_300b = (log 300.0, 0.2)

let read_probe f ~region ~rate ~timeout =
  let g =
    Fleet.generator f ~client_id:"read-probe" ~region ~read_ratio:1.0
      ~read_level:Read.Level.Linearizable ~read_timeout:timeout ~write_timeout:timeout
  in
  Workload.Generator.start_open_loop g ~rate_per_s:rate;
  g

let availability f = Myraft.Availability.start f.Fleet.cluster ~client_id:"probe"

(* 100 ms slices of a steady window: each slice's largest probe gap is
   one write-stall sample. *)
let steady_window f _load _inv ~length =
  let c = f.Fleet.cluster in
  let t0 = Myraft.Cluster.now c in
  Fleet.run f (fun () -> Myraft.Cluster.run_for c length);
  let slice = 100.0 *. ms in
  let n = max 1 (int_of_float (length /. slice)) in
  List.init n (fun i -> (t0 +. (float_of_int i *. slice), t0 +. (float_of_int (i + 1) *. slice)))

(* The BENCH_PIPELINE.json hot cell: 768 sysbench-style closed-loop
   clients in r1, 100 us from every member, window 8, 2 ms RTT to the
   in-region logtailers. *)
let hot_cell_params =
  let d = Myraft.Params.default in
  { d with Myraft.Params.raft = { d.Myraft.Params.raft with Raft.Node.max_inflight_aes = 8 } }

let hot_cell_links c =
  Myraft.Cluster.set_link_latency c ~a:"mysql1" ~b:"lt1a" ~latency:(1.0 *. ms);
  Myraft.Cluster.set_link_latency c ~a:"mysql1" ~b:"lt1b" ~latency:(1.0 *. ms)

let hot_cell_load f =
  let mu, sigma = rows_300b in
  let g =
    Fleet.generator f ~client_id:"pipe-load" ~region:"r1" ~client_latency:(100.0 *. us)
      ~value_mu:mu ~value_sigma:sigma
  in
  Workload.Generator.start_closed_loop g ~threads:768;
  g

let commit_saturate =
  {
    name = "commit-saturate";
    replicaset = "rs-pipeline";
    params = hot_cell_params;
    latency = (fun () -> Sim.Latency.default);
    configure = hot_cell_links;
    warmup = 0.3 *. s;
    subruns = 3;
    window_per_s = 0.2 *. s;
    start =
      (fun f ->
        let g = hot_cell_load f in
        let r = read_probe f ~region:"r1" ~rate:1000.0 ~timeout:(5.0 *. s) in
        { gens = [ g; r ]; probe = availability f });
    window = steady_window;
  }

(* The benches' region model: production clients about 10 ms RTT from
   every server region. *)
let ab_latency () =
  List.fold_left
    (fun model region ->
      Sim.Latency.override model ~region_a:"clients" ~region_b:region ~lo:(4_600.0 *. us)
        ~hi:(5_400.0 *. us))
    Sim.Latency.default
    [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6" ]

let mixed_open =
  {
    name = "mixed-open";
    replicaset = "rs-mixed";
    params = Myraft.Params.default;
    latency = ab_latency;
    configure = (fun _ -> ());
    warmup = 0.5 *. s;
    subruns = 9;
    window_per_s = 1.0 *. s;
    start =
      (fun f ->
        let mu, sigma = rows_300b in
        let c1 =
          Fleet.generator f ~client_id:"c1" ~region:"r1" ~read_ratio:0.5
            ~read_level:Read.Level.Linearizable ~value_mu:mu ~value_sigma:sigma
        in
        let c3 =
          Fleet.generator f ~client_id:"c3" ~region:"r3" ~read_ratio:0.9
            ~read_level:(Read.Level.Bounded_staleness (600.0 *. ms)) ~read_target:"mysql3"
            ~value_mu:mu ~value_sigma:sigma
        in
        Workload.Generator.start_open_loop c1 ~rate_per_s:10_000.0;
        Workload.Generator.start_open_loop c3 ~rate_per_s:10_000.0;
        { gens = [ c1; c3 ]; probe = availability f });
    window = steady_window;
  }

(* One incident: crash the primary, wait for another, restart the
   victim, wait until its log has caught up, settle, check the Raft
   invariants.  The downtime sample spans crash to settled. *)
let incident f inv =
  let c = f.Fleet.cluster in
  let victim =
    match Myraft.Cluster.primary c with
    | Some srv -> Myraft.Server.id srv
    | None -> failwith "failover-loop: no primary before the incident"
  in
  let t0 = Myraft.Cluster.now c in
  let must what ok = if not ok then failwith ("failover-loop: " ^ what) in
  Fleet.run f (fun () -> Myraft.Cluster.crash c victim);
  must "no new primary within 30 s"
    (Fleet.run f (fun () ->
         Myraft.Cluster.run_until c ~timeout:(30.0 *. s) (fun () ->
             match Myraft.Cluster.primary c with
             | Some srv -> Myraft.Server.id srv <> victim
             | None -> false)));
  Fleet.run f (fun () -> Myraft.Cluster.restart c victim);
  (* caught up: holds what the new leader had committed at the restart *)
  let leader_commit () =
    match Option.bind (Myraft.Cluster.raft_leader c) (Myraft.Cluster.raft_of c) with
    | Some l -> Raft.Node.commit_index l
    | None -> max_int
  in
  let target = leader_commit () in
  must "victim did not catch up within 30 s"
    (Fleet.run f (fun () ->
         Myraft.Cluster.run_until c ~timeout:(30.0 *. s) (fun () ->
             match Myraft.Cluster.raft_of c victim with
             | Some r -> Raft.Node.last_index r >= target
             | None -> false)));
  Fleet.run f (fun () -> Myraft.Cluster.run_for c (500.0 *. ms));
  Chaos.Invariants.check inv;
  (t0, Myraft.Cluster.now c)

(* The clients sit in the region model's "clients" region, about 5 ms
   from every server region, so commit latency does not depend on which
   region the new primary lands in. *)
let failover_loop =
  {
    name = "failover-loop";
    replicaset = "rs-failover";
    params = Myraft.Params.default;
    latency = ab_latency;
    configure = (fun _ -> ());
    warmup = 0.5 *. s;
    subruns = 5;
    window_per_s = 3.0;
    start =
      (fun f ->
        let mu, sigma = rows_300b in
        let g =
          Fleet.generator f ~client_id:"c1" ~region:"clients" ~write_timeout:(1.0 *. s)
            ~value_mu:mu ~value_sigma:sigma
        in
        Workload.Generator.start_open_loop g ~rate_per_s:2_000.0;
        let r = read_probe f ~region:"clients" ~rate:200.0 ~timeout:(1.0 *. s) in
        { gens = [ g; r ]; probe = availability f });
    (* [length] counts incidents here *)
    window =
      (fun f _load inv ~length ->
        List.init (max 1 (int_of_float (Float.round length))) (fun _ -> incident f inv));
  }

let all = [ commit_saturate; mixed_open; failover_loop ]

let find name = List.find_opt (fun w -> w.name = name) all
