(* Shadow testing (§5.1): run a production-representative workload while
   continuously injecting failures — repeated leader crashes and repeated
   graceful transfers — and continuously checking engine checksums across
   the ring for correctness.

     dune exec examples/shadow_testing.exe *)

let s = Sim.Engine.s

let members () =
  List.concat_map
    (fun i ->
      [
        Myraft.Cluster.mysql (Printf.sprintf "mysql%d" i) (Printf.sprintf "r%d" i);
        Myraft.Cluster.logtailer (Printf.sprintf "lt%da" i) (Printf.sprintf "r%d" i);
        Myraft.Cluster.logtailer (Printf.sprintf "lt%db" i) (Printf.sprintf "r%d" i);
      ])
    [ 1; 2; 3 ]

(* A MyShadow campaign is a one-kind nemesis: every interval it injects
   [kind] (crash the leader, or ask it to transfer away), one fault at a
   time, and a crashed leader restarts after [restart_after]. *)
let shadow_nemesis cluster ~kind ~restart_after =
  let engine = Myraft.Cluster.engine cluster in
  Chaos.Nemesis.create ~engine ~trace:(Myraft.Cluster.trace cluster)
    ~rng:(Sim.Rng.split (Sim.Engine.rng engine))
    ~spec:
      {
        Chaos.Schedule.default with
        Chaos.Schedule.mix = [ (kind, 1.0) ];
        inject_p = 1.0;
        max_concurrent = 1;
        heal_after_lo = restart_after;
        heal_after_hi = restart_after;
      }
    ~ops:(Chaos.Nemesis.ops_of_cluster cluster)

let engine_txns cluster =
  List.fold_left
    (fun acc srv ->
      if Myraft.Server.is_crashed srv then acc
      else max acc (Storage.Engine.committed_count (Myraft.Server.storage srv)))
    0 (Myraft.Cluster.servers cluster)

let run_campaign ~kind ~label ~rounds =
  Printf.printf "\n--- %s campaign (%d injections) ---\n%!" label rounds;
  let cluster =
    Myraft.Cluster.create ~seed:77 ~replicaset:"shadow" ~members:(members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let backend = Workload.Backend.myraft cluster in
  let load =
    Workload.Generator.create ~backend ~client_id:"shadow-load" ~region:"r1"
      ~client_latency:(300.0 *. Sim.Engine.us) ~write_timeout:(10.0 *. s) ()
  in
  Workload.Generator.start_open_loop load ~rate_per_s:150.0;
  let nemesis = shadow_nemesis cluster ~kind ~restart_after:(5.0 *. s) in
  let injecting = ref true in
  let engine = Myraft.Cluster.engine cluster in
  let rec inject () =
    if !injecting then begin
      Chaos.Nemesis.step nemesis;
      ignore (Sim.Engine.schedule engine ~delay:(15.0 *. s) inject)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:(15.0 *. s) inject);
  (* §5.1's checksum comparison: engine commit histories must be prefixes
     of one another (lagging replicas compared through the per-commit
     digest chain), alongside the Raft safety oracles *)
  let checker =
    Chaos.Invariants.create
      ~now:(fun () -> Myraft.Cluster.now cluster)
      ~probes:(Chaos.Nemesis.probes_of_cluster cluster) ()
  in
  for _ = 1 to rounds do
    Myraft.Cluster.run_for cluster (15.0 *. s);
    Chaos.Invariants.check checker
  done;
  let mid_run = Chaos.Invariants.violation_count checker in
  injecting := false;
  Workload.Generator.stop load;
  (* quiesce and do the final strict check *)
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () ->
         Myraft.Cluster.primary cluster <> None));
  Myraft.Cluster.run_for cluster (10.0 *. s);
  Chaos.Invariants.check checker;
  Chaos.Invariants.check_converged checker;
  Printf.printf "  injections: %d, checksum checks: %d (%d violations)\n"
    (Chaos.Nemesis.total_injections nemesis)
    rounds mid_run;
  Printf.printf "  workload: %s\n" (Workload.Generator.summary load);
  let violations = Chaos.Invariants.violations checker in
  (match violations with
  | [] ->
    Printf.printf "  final consistency: all live engines identical at %d txns\n"
      (engine_txns cluster)
  | vs ->
    List.iter
      (fun v -> Printf.printf "  !! %s\n" (Chaos.Invariants.violation_to_string v))
      vs);
  List.length violations

let () =
  print_endline "== MyShadow-style failure-injection testing ==";
  let f1 =
    run_campaign ~kind:Chaos.Schedule.Leader_crash ~label:"failure injection" ~rounds:6
  in
  let f2 =
    run_campaign ~kind:Chaos.Schedule.Graceful_transfer ~label:"functional (transfer)"
      ~rounds:6
  in
  if f1 + f2 = 0 then print_endline "\nall correctness checks passed."
  else begin
    Printf.printf "\n%d correctness check(s) failed!\n" (f1 + f2);
    exit 1
  end
