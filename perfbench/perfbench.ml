(* The repository benchmark: one workload per process, measured on the
   two clocks of the simulation.

     perfbench.exe --workload commit-saturate --seed 1 --seconds 10 --trace 0
     perfbench.exe --check-model

   Virtual metrics describe the modelled MySQL fleet and repeat exactly
   for a seed; real metrics describe what the OCaml program costs.  An
   untraced run (--trace 0) makes the workload's [subruns] independent sub-runs, each a
   fresh fleet on a seed derived from --seed: setup (build, bootstrap,
   warm-up), a measured window, then a drain and the correctness checks.
   Virtual samples are pooled over the sub-runs; real figures are the
   median of the sub-runs.  A traced run (--trace 1) runs sub-run 0
   three times (untraced, traced, untraced), checks all three agree on
   every virtual figure, and reports the per-layer ledger (Layers) plus
   the tracing overhead.  The last line of standard output is one JSON object. *)

let t_start = Unix.gettimeofday ()

(* ----- one sub-run ----- *)

type sub = {
  setup_s : float;
  window_v : float; (* virtual seconds *)
  w_attempted : int;
  w_ok : int;
  w_failed : int; (* refused or timed out *)
  r_attempted : int;
  r_ok : int;
  refused : int array; (* by Ledger.refusal, timeouts included *)
  commit_lat : float array; (* virtual us *)
  read_lat : float array;
  downtimes : float array; (* virtual us *)
  events : int;
  msgs : int;
  bytes : int;
  cpu_s : float;
  heap_mb : float; (* process top heap at the window's end *)
  gc_minor : float;
  gc_promoted : float;
  gc_major : int;
  acked : int;
  acked_lost : int;
  violations : string list;
}

let ops s = s.w_ok + s.r_ok

let sub_seed seed i = (seed * 7919) + i

let members () = Myraft.Cluster.paper_members ()

let invariants (f : Fleet.t) =
  let c = f.cluster in
  Chaos.Invariants.create
    ~now:(fun () -> Myraft.Cluster.now c)
    ~probes:(Chaos.Nemesis.probes_of_cluster c) ()

(* After the window: stop the load, let every request settle or time
   out, then wait until every up member holds the leader's log and every
   up server has applied it. *)
let drain (f : Fleet.t) (load : Workloads.load) =
  let c = f.cluster in
  List.iter Workload.Generator.stop load.Workloads.gens;
  Myraft.Availability.stop load.probe;
  ignore
    (Myraft.Cluster.run_until c ~timeout:(10.0 *. Sim.Engine.s) (fun () ->
         Ledger.backlog f.ctx.ledger = 0));
  let up id = not (Myraft.Cluster.is_crashed c id) in
  let converged () =
    match Option.bind (Myraft.Cluster.raft_leader c) (Myraft.Cluster.raft_of c) with
    | None -> false
    | Some l ->
      let ci = Raft.Node.commit_index l in
      ci = Raft.Node.last_index l
      && List.for_all
           (fun id ->
             (not (up id))
             ||
             match Myraft.Cluster.raft_of c id with
             | Some r -> Raft.Node.last_index r = ci && Raft.Node.commit_index r = ci
             | None -> true)
           (Myraft.Cluster.member_ids c)
      && List.for_all
           (fun srv ->
             Myraft.Server.is_crashed srv || Myraft.Server.applied_through srv >= ci)
           (Myraft.Cluster.servers c)
  in
  Myraft.Cluster.run_until c ~timeout:(30.0 *. Sim.Engine.s) converged

let run_sub (w : Workloads.spec) ~seed ~length ~tracer ~started =
  let f =
    Fleet.create ?tracer ~seed ~params:w.params ~latency:(w.latency ())
      ~replicaset:w.replicaset (members ())
  in
  let c = f.cluster in
  w.configure c;
  Myraft.Cluster.bootstrap c ~leader_id:"mysql1";
  let load = w.start f in
  Myraft.Cluster.run_for c w.warmup;
  let setup_s = Unix.gettimeofday () -. started in
  (* ----- measured window ----- *)
  let inv = invariants f in
  let a = Option.map (fun _ -> Layers.mark f) tracer in
  let ledger = f.ctx.ledger in
  let events0 = Sim.Engine.executed_events f.ctx.engine in
  let msgs0 = Sim.Network.total_messages f.network
  and bytes0 = Sim.Network.total_bytes f.network in
  let gc0 = Gc.quick_stat () in
  Ledger.open_window ledger;
  Option.iter (fun tr -> Tracer.set_recording tr true) tracer;
  let windows = w.window f load inv ~length in
  Option.iter (fun tr -> Tracer.set_recording tr false) tracer;
  Ledger.close_window ledger;
  let gc1 = Gc.quick_stat () in
  let heap_mb = float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  let window_v = (ledger.Ledger.win_end -. ledger.win_start) /. Sim.Engine.s in
  let backlog_end = Ledger.backlog ledger in
  let lag_end =
    List.fold_left
      (fun acc (srv, _, lag) ->
        if Myraft.Server.role srv = Myraft.Server.Primary then acc
        else Float.max acc (Obs.Metrics.gauge_value lag))
      0.0 f.ctx.gauges
  in
  let b = Option.map (fun _ -> Layers.mark f) tracer in
  let events = Sim.Engine.executed_events f.ctx.engine - events0 in
  let msgs = Sim.Network.total_messages f.network - msgs0
  and bytes = Sim.Network.total_bytes f.network - bytes0 in
  let downtimes =
    Array.of_list
      (List.map
         (fun (t0, t1) -> Myraft.Availability.max_downtime load.probe ~start_time:t0 ~end_time:t1)
         windows)
  in
  (* ----- drain and check ----- *)
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if not (drain f load) then fail "fleet did not converge within 30 s after the load stopped";
  let w_timeouts = Ledger.settle_timeouts ledger in
  let acked = ledger.acked in
  let acked_lost =
    match Myraft.Cluster.primary c with
    | None ->
      fail "no primary at the end of the run";
      List.length acked
    | Some p ->
      let engine = Myraft.Server.storage p in
      List.fold_left
        (fun n g -> if Storage.Engine.has_committed engine g then n else n + 1)
        0 acked
  in
  if acked_lost > 0 then fail "%d acknowledged writes missing on the final primary" acked_lost;
  Chaos.Invariants.check inv;
  Chaos.Invariants.check_converged inv;
  List.iter
    (fun v -> fail "%s" (Chaos.Invariants.violation_to_string v))
    (Chaos.Invariants.violations inv);
  let sub =
    {
      setup_s;
      window_v;
      w_attempted = ledger.w_attempted;
      w_ok = ledger.w_ok;
      w_failed = ledger.w_rejected + w_timeouts;
      r_attempted = ledger.r_attempted;
      r_ok = ledger.r_ok;
      refused = Array.copy ledger.refused;
      commit_lat = Ledger.to_array ledger.commit_lat;
      read_lat = Ledger.to_array ledger.read_lat;
      downtimes;
      events;
      msgs;
      bytes;
      cpu_s = f.ctx.run_cpu;
      heap_mb;
      gc_minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      gc_promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
      acked = List.length acked;
      acked_lost;
      violations = List.rev !violations;
    }
  in
  let layers =
    match (tracer, a, b) with
    | Some tracer, Some a, Some b ->
      fun ~(untraced : sub) ->
        Layers.compute
          {
            Layers.fleet = f;
            tracer;
            a;
            b;
            ops = ops sub;
            window_v;
            commit_mean_us = Layers.mean sub.commit_lat;
            refused = Ledger.refused ledger;
            backlog_end;
            lag_end;
            gc_minor = untraced.gc_minor;
            gc_promoted = untraced.gc_promoted;
            gc_major = untraced.gc_major;
            overhead_us_per_op =
              ((sub.cpu_s /. float_of_int (max 1 (ops sub)))
              -. (untraced.cpu_s /. float_of_int (max 1 (ops untraced))))
              *. 1e6;
          }
    | _ -> fun ~untraced:_ -> []
  in
  (sub, layers, f)

(* Fresh heap between sub-runs, so each starts from the same state. *)
let reset_heap () =
  Gc.full_major ();
  Gc.compact ()

(* ----- aggregation ----- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let pool f subs = Array.concat (List.map f subs)

(* Percentile of virtual-us samples as grouped data: the model's
   latencies fall on whole microseconds, so thousands of samples can tie
   and a plain nearest-rank percentile would move in 1 us steps.  Treat
   each whole microsecond as a bin and interpolate the rank within it
   (the textbook grouped-data median, L + (n p - F) / f x width). *)
let pct_us samples p =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let a = Array.map Float.round samples in
    Array.sort compare a;
    let rank = p /. 100.0 *. float_of_int n in
    let i = max 0 (min (n - 1) (int_of_float (ceil rank) - 1)) in
    let v = a.(i) in
    let lo = ref i and hi = ref i in
    while !lo > 0 && a.(!lo - 1) = v do decr lo done;
    while !hi < n - 1 && a.(!hi + 1) = v do incr hi done;
    let within = (rank -. float_of_int !lo) /. float_of_int (!hi - !lo + 1) in
    v -. 0.5 +. Float.min 1.0 (Float.max 0.0 within)
  end

let sum f subs = List.fold_left (fun acc s -> acc + f s) 0 subs

let end_to_end subs =
  let commit = pool (fun s -> s.commit_lat) subs and read = pool (fun s -> s.read_lat) subs in
  let window_v = List.fold_left (fun acc s -> acc +. s.window_v) 0.0 subs in
  [
    ("commit_tps", "txn/s", float_of_int (sum (fun s -> s.w_ok) subs) /. window_v);
    ("commit_p50_ms", "ms", pct_us commit 50.0 /. 1000.0);
    ("commit_p99_ms", "ms", pct_us commit 99.0 /. 1000.0);
    ("read_p50_ms", "ms", pct_us read 50.0 /. 1000.0);
    ("read_p99_ms", "ms", pct_us read 99.0 /. 1000.0);
    (* median over the sub-runs: each fleet settles into its own
       follower-freshness regime (see DESIGN.md), so a pooled ratio
       would swing with how many fleets of a run land in the rarer one *)
    ( "ok_frac",
      "ratio",
      median
        (List.map
           (fun s -> float_of_int (ops s) /. float_of_int (max 1 (s.w_attempted + s.r_attempted)))
           subs) );
    ("downtime_p50_ms", "ms", pct_us (pool (fun s -> s.downtimes) subs) 50.0 /. 1000.0);
    ( "cpu_us_per_op",
      "us",
      median (List.map (fun s -> s.cpu_s *. 1e6 /. float_of_int (max 1 (ops s))) subs) );
    (* sub-run 0 only: later sub-runs inherit the top heap of the
       correctness checks that ran before them *)
    ("peak_heap_mb", "MiB", (List.hd subs).heap_mb);
    ("setup_s", "s", median (List.map (fun s -> s.setup_s) subs));
  ]

(* Everything a traced pass must reproduce exactly. *)
let virtual_signature s =
  ( (s.window_v, s.w_attempted, s.w_ok, s.w_failed, s.r_attempted, s.r_ok),
    (Array.to_list s.refused, s.events, s.msgs, s.bytes, s.acked),
    (s.commit_lat, s.read_lat, s.downtimes) )

(* ----- output ----- *)

let json_metrics rows =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
           (Printf.sprintf "%.17g" v) unit_)
       rows)

let print_result ~correct ~attempted ~failed rows =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics rows)

let describe_sub i s =
  Printf.printf
    "  sub-run %d: setup %.2f s, window %.3f virtual s, %.2f s cpu; writes %d/%d ok, reads %d/%d \
     ok (refused: %d applying, %d stale, %d timeout, %d other); %d commit and %d read samples, \
     %d downtime samples; %d acked, %d lost%s\n%!"
    i s.setup_s s.window_v s.cpu_s s.w_ok s.w_attempted s.r_ok s.r_attempted s.refused.(0)
    s.refused.(1) s.refused.(2) s.refused.(3) (Array.length s.commit_lat)
    (Array.length s.read_lat) (Array.length s.downtimes) s.acked s.acked_lost
    (match s.violations with [] -> "" | v -> "; FAILED: " ^ String.concat "; " v)

(* ----- modes ----- *)

let measure_untraced (w : Workloads.spec) ~seed ~seconds =
  let length = seconds /. float_of_int w.subruns *. w.window_per_s in
  let subs =
    List.init w.subruns (fun i ->
        if i > 0 then reset_heap ();
        let started = if i = 0 then t_start else Unix.gettimeofday () in
        let s, _, _ = run_sub w ~seed:(sub_seed seed i) ~length ~tracer:None ~started in
        describe_sub i s;
        s)
  in
  let rows = end_to_end subs in
  List.iter (fun (n, u, v) -> Printf.printf "  %-16s %14.4f %s\n" n v u) rows;
  let correct = List.for_all (fun s -> s.violations = []) subs in
  print_result ~correct
    ~attempted:(sum (fun s -> s.w_attempted + s.r_attempted) subs)
    ~failed:(sum (fun s -> s.acked_lost) subs)
    rows;
  correct

let measure_traced (w : Workloads.spec) ~seed ~seconds =
  let trace_out = Printf.sprintf "perfbench/out/trace-%s-%d.json" w.name seed in
  let length = seconds /. float_of_int w.subruns *. w.window_per_s in
  let seed = sub_seed seed 0 in
  let untraced ~started =
    let s, _, _ = run_sub w ~seed ~length ~tracer:None ~started in
    describe_sub 0 s;
    s
  in
  (* untraced, traced, untraced: the first pass also warms the process
     (its first heap growth), so the overhead compares the two warm ones *)
  let first = untraced ~started:t_start in
  reset_heap ();
  let tracer = Tracer.create ~capacity:100_000 in
  let traced, layers, fleet =
    run_sub w ~seed ~length ~tracer:(Some tracer) ~started:(Unix.gettimeofday ())
  in
  describe_sub 0 traced;
  reset_heap ();
  let last = untraced ~started:(Unix.gettimeofday ()) in
  let same =
    virtual_signature first = virtual_signature traced
    && virtual_signature last = virtual_signature traced
  in
  if not same then print_endline "  traced run diverged from the untraced run in virtual time";
  let rows = layers ~untraced:last in
  let units = Layers.metrics in
  List.iter (fun (n, v) -> Printf.printf "  %-40s %14.4f %s\n" n v (List.assoc n units)) rows;
  (try
     (try Sys.mkdir (Filename.dirname trace_out) 0o755 with Sys_error _ -> ());
     Tracer.write_chrome tracer ~path:trace_out ~tracks:(Fleet.track_names fleet);
     Printf.printf "  trace: %d spans (%d written) -> %s\n" (Tracer.spans tracer)
       (Tracer.retained tracer) trace_out
   with Sys_error e -> Printf.printf "  trace not written: %s\n" e);
  let correct = same && List.for_all (fun s -> s.violations = []) [ first; traced; last ] in
  print_result ~correct
    ~attempted:(traced.w_attempted + traced.r_attempted)
    ~failed:traced.acked_lost
    (List.map (fun (n, v) -> (n, List.assoc n units, v)) rows);
  correct

(* The BENCH_PIPELINE.json hot cell through the benchmark's transport:
   seed 71, 1 s warm-up, 4 s measured must commit exactly what the
   standalone cluster committed. *)
let check_model () =
  let expected = 419_105 in
  let f =
    Fleet.create ~seed:71 ~params:Workloads.hot_cell_params ~latency:Sim.Latency.default
      ~replicaset:"rs-pipeline" (members ())
  in
  Workloads.hot_cell_links f.cluster;
  Myraft.Cluster.bootstrap f.cluster ~leader_id:"mysql1";
  let g = Workloads.hot_cell_load f in
  Myraft.Cluster.run_for f.cluster (1.0 *. Sim.Engine.s);
  let stats = Workload.Generator.stats g in
  let before = stats.Workload.Generator.committed in
  Myraft.Cluster.run_for f.cluster (4.0 *. Sim.Engine.s);
  let committed = stats.Workload.Generator.committed - before in
  Printf.printf "model equivalence: hot cell committed %d txns in 4 s (BENCH_PIPELINE.json: %d) %s\n%!"
    committed expected
    (if committed = expected then "PASS" else "FAIL");
  committed = expected

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let model = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME commit-saturate | mixed-open | failover-loop");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured real seconds the run is sized for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--check-model", Arg.Set model, " run the model-equivalence check and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let ok =
    if !model then check_model ()
    else
      match Workloads.find !workload with
      | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
      | Some w ->
        Printf.printf "%s seed %d, %g s, trace %d\n%!" w.name !seed !seconds !trace;
        if !trace = 1 then measure_traced w ~seed:!seed ~seconds:!seconds
        else measure_untraced w ~seed:!seed ~seconds:!seconds
  in
  exit (if ok then 0 else 1)
