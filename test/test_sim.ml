(* Simulation kernel tests: RNG determinism, heap ordering, engine
   scheduling semantics, network delivery/partitions/accounting. *)

let test_rng_deterministic () =
  let a = Sim.Rng.of_int 42 and b = Sim.Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.of_int 42 in
  let child = Sim.Rng.split parent in
  let v1 = Sim.Rng.next_int64 child in
  (* Drawing from the parent must not affect an already-split child's
     determinism relative to an identical reconstruction. *)
  let parent2 = Sim.Rng.of_int 42 in
  let child2 = Sim.Rng.split parent2 in
  Alcotest.(check int64) "split deterministic" v1 (Sim.Rng.next_int64 child2)

let test_rng_float_range () =
  let rng = Sim.Rng.of_int 1 in
  for _ = 1 to 10_000 do
    let f = Sim.Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_int_bound () =
  let rng = Sim.Rng.of_int 2 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_exponential_mean () =
  let rng = Sim.Rng.of_int 3 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 10.0) > 0.5 then Alcotest.failf "exponential mean off: %f" mean

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  let rng = Sim.Rng.of_int 4 in
  for i = 1 to 1000 do
    Sim.Heap.push h ~key:(Sim.Rng.float rng) ~seq:i i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  while not (Sim.Heap.is_empty h) do
    let key = Sim.Heap.min_key h in
    let _v = Sim.Heap.pop_min h in
    if key < !last then Alcotest.fail "heap order violated";
    last := key;
    incr count
  done;
  Alcotest.(check int) "all popped" 1000 !count

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  for i = 1 to 50 do
    Sim.Heap.push h ~key:1.0 ~seq:i i
  done;
  for i = 1 to 50 do
    if Sim.Heap.is_empty h then Alcotest.fail "missing entry"
    else Alcotest.(check int) "tie broken by seq" i (Sim.Heap.pop_min h)
  done

(* Random interleavings of pushes and pops over a handful of distinct
   keys (so most keys tie): every pop must return the (key, seq)-least
   pending entry, exactly as a sorted reference list would. *)
type heap_op = Push of int | Pop

let heap_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map (function Push k -> Printf.sprintf "+%d" k | Pop -> "-") ops))
    QCheck.Gen.(
      list_size (0 -- 400)
        (frequency [ (3, map (fun k -> Push k) (0 -- 4)); (2, return Pop) ]))

let prop_heap_pops_in_key_seq_order =
  QCheck.Test.make ~name:"pops follow (key, seq) order" ~count:500 heap_ops_arb
    (fun ops ->
      let h = Sim.Heap.create () in
      let pending = ref [] (* (key, seq), sorted *) in
      let seq = ref 0 in
      let pop_matches () =
        match !pending with
        | [] -> Sim.Heap.is_empty h
        | (key, s) :: rest ->
          pending := rest;
          Sim.Heap.length h = List.length rest + 1
          && Sim.Heap.min_key h = key
          && Sim.Heap.pop_min h = s
      in
      List.for_all
        (function
          | Push k ->
            incr seq;
            Sim.Heap.push h ~key:(float_of_int k) ~seq:!seq !seq;
            pending := List.sort compare ((float_of_int k, !seq) :: !pending);
            true
          | Pop -> pop_matches ())
        ops
      && List.for_all (fun _ -> pop_matches ()) !pending
      && Sim.Heap.is_empty h)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore (Sim.Engine.schedule e ~delay:30.0 (fun () -> order := 3 :: !order));
  ignore (Sim.Engine.schedule e ~delay:10.0 (fun () -> order := 1 :: !order));
  ignore (Sim.Engine.schedule e ~delay:20.0 (fun () -> order := 2 :: !order));
  Sim.Engine.run_until e 100.0;
  Alcotest.(check (list int)) "fired in time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check (float 0.001)) "time at horizon" 100.0 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~delay:5.0 (fun () -> fired := true) in
  Sim.Engine.cancel h;
  Sim.Engine.run_until e 10.0;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:5.0 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore
           (Sim.Engine.schedule e ~delay:5.0 (fun () ->
                times := Sim.Engine.now e :: !times))));
  Sim.Engine.run_until e 100.0;
  Alcotest.(check (list (float 0.001))) "nested timing" [ 5.0; 10.0 ] (List.rev !times)

(* Same-instant events fire in schedule order, with cancelled handles
   interleaved among them and more same-instant events scheduled from
   inside a handler (those queue behind everything already pending). *)
let test_engine_same_instant_fifo_with_cancels () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let expected = ref [] in
  for i = 1 to 60 do
    let fn () =
      fired := i :: !fired;
      if i = 10 then
        for j = 101 to 105 do
          ignore (Sim.Engine.schedule e ~delay:0.0 (fun () -> fired := j :: !fired))
        done
    in
    let h = Sim.Engine.schedule e ~delay:(if i mod 7 = 0 then 5.0 else 10.0) fn in
    if i mod 3 = 0 then Sim.Engine.cancel h else expected := i :: !expected
  done;
  Sim.Engine.run_until e 100.0;
  let early, late = List.partition (fun i -> i mod 7 = 0) (List.rev !expected) in
  Alcotest.(check (list int)) "schedule order within each instant, cancels skipped"
    (early @ late @ [ 101; 102; 103; 104; 105 ])
    (List.rev !fired)

let test_engine_run_until_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  ignore (Sim.Engine.schedule e ~delay:50.0 (fun () -> fired := true));
  Sim.Engine.run_until e 20.0;
  Alcotest.(check bool) "future event pending" false !fired;
  Sim.Engine.run_until e 60.0;
  Alcotest.(check bool) "fires after horizon advance" true !fired

let make_net ?(latency = Sim.Latency.fixed ~same:100.0 ~cross:10_000.0) () =
  let e = Sim.Engine.create () in
  let topo = Sim.Topology.create () in
  Sim.Topology.add_node topo ~id:"a" ~region:"r1";
  Sim.Topology.add_node topo ~id:"b" ~region:"r1";
  Sim.Topology.add_node topo ~id:"c" ~region:"r2";
  let net = Sim.Network.create e topo ~latency () in
  (e, net)

let test_network_delivery () =
  let e, net = make_net () in
  let got = ref [] in
  Sim.Network.register net "b" (fun ~src msg -> got := (src, msg) :: !got);
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:100 "hello";
  Sim.Engine.run_until e 1_000.0;
  Alcotest.(check (list (pair string string))) "delivered" [ ("a", "hello") ] !got

let test_network_latency_applied () =
  let e, net = make_net () in
  let at = ref 0.0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> at := Sim.Engine.now e);
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check (float 0.001)) "cross-region latency" 10_000.0 !at

let test_network_down_node_drops () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.set_down net "b";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x";
  Sim.Engine.run_until e 1_000.0;
  Alcotest.(check int) "dropped to down node" 0 !got;
  Sim.Network.set_up net "b";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "y";
  Sim.Engine.run_until e 2_000.0;
  Alcotest.(check int) "delivered after set_up" 1 !got

let test_network_partition () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> incr got);
  Sim.Network.cut_regions net "r1" "r2";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "partitioned" 0 !got;
  Sim.Network.heal_regions net "r1" "r2";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "y";
  Sim.Engine.run_until e 200_000.0;
  Alcotest.(check int) "healed" 1 !got

let test_network_isolate_node () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.isolate_node net "a";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x";
  Sim.Engine.run_until e 1_000.0;
  Alcotest.(check int) "isolated sender drops" 0 !got

let test_network_fault_drop_accounting () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.set_node_faults net "a" { Sim.Network.no_faults with drop = 1.0 };
  for _ = 1 to 20 do
    Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x"
  done;
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "fault_dropped counts them" 20 (Sim.Network.fault_dropped net);
  Alcotest.(check int) "dropped counter fed too" 20 (Sim.Network.dropped net)

let test_network_fault_duplicate_delivers_twice () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.set_link_faults net ~src:"a" ~dst:"b"
    { Sim.Network.no_faults with duplicate = 1.0; reorder_delay = 50.0 };
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "two copies" 2 !got;
  Alcotest.(check int) "duplicated counter" 1 (Sim.Network.duplicated net)

(* Fault rolls come from a split RNG keyed by the engine seed: the same
   seed must produce the same losses, duplicates and delivery times. *)
let test_network_fault_determinism () =
  let observe () =
    let e = Sim.Engine.create ~seed:77 () in
    let topo = Sim.Topology.create () in
    Sim.Topology.add_node topo ~id:"a" ~region:"r1";
    Sim.Topology.add_node topo ~id:"b" ~region:"r1";
    let net = Sim.Network.create e topo ~latency:(Sim.Latency.fixed ~same:100.0 ~cross:100.0) () in
    let log = ref [] in
    Sim.Network.register net "b" (fun ~src:_ msg -> log := (msg, Sim.Engine.now e) :: !log);
    Sim.Network.set_node_faults net "a"
      { Sim.Network.drop = 0.2; duplicate = 0.3; reorder = 0.4; reorder_delay = 500.0;
        extra_latency = 0.0 };
    for i = 1 to 50 do
      Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 (string_of_int i)
    done;
    Sim.Engine.run_until e 100_000.0;
    (List.rev !log, Sim.Network.fault_dropped net, Sim.Network.duplicated net,
     Sim.Network.reordered net)
  in
  let (log1, d1, dup1, r1) = observe () and (log2, d2, dup2, r2) = observe () in
  Alcotest.(check (list (pair string (float 0.0)))) "same deliveries, same times" log1 log2;
  Alcotest.(check int) "same drops" d1 d2;
  Alcotest.(check int) "same duplicates" dup1 dup2;
  Alcotest.(check int) "same reorders" r1 r2;
  if d1 = 0 && dup1 = 0 && r1 = 0 then Alcotest.fail "faults never fired; test proves nothing"

let test_network_heal_all_clears_faults () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> incr got);
  Sim.Network.set_node_faults net "a" { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.set_link_faults net ~src:"b" ~dst:"c" { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.cut_regions net "r1" "r2";
  Sim.Network.isolate_node net "b";
  Alcotest.(check (list string)) "faulted nodes listed" [ "a" ] (Sim.Network.faulted_nodes net);
  Sim.Network.heal_all net;
  Alcotest.(check (list string)) "fault table cleared" [] (Sim.Network.faulted_nodes net);
  Alcotest.(check (float 0.0)) "node spec back to zero" 0.0
    (Sim.Network.node_faults net "a").Sim.Network.drop;
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Network.send net ~src:"b" ~dst:"c" ~size:10 "y";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "partition, isolation and faults all healed" 2 !got;
  Alcotest.(check int) "nothing fault-dropped after heal" 0 (Sim.Network.fault_dropped net)

let test_network_byte_accounting () =
  let e, net = make_net () in
  Sim.Network.register net "b" (fun ~src:_ _ -> ());
  Sim.Network.register net "c" (fun ~src:_ _ -> ());
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:100 "x";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:250 "y";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:250 "z";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "link bytes" 100 (Sim.Network.link_bytes net ~src:"a" ~dst:"b");
  Alcotest.(check int) "cross-region bytes" 500 (Sim.Network.cross_region_bytes net);
  Alcotest.(check int) "total bytes" 600 (Sim.Network.total_bytes net);
  Alcotest.(check int) "messages" 3 (Sim.Network.total_messages net)

let test_link_latency_override () =
  let e, net = make_net () in
  let at = ref 0.0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> at := Sim.Engine.now e);
  Sim.Network.set_link_latency net ~a:"a" ~b:"c" ~latency:42.0;
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check (float 0.001)) "override applied" 42.0 !at

let test_egress_capacity_serializes () =
  let e, net = make_net () in
  let arrivals = ref [] in
  Sim.Network.register net "b" (fun ~src:_ _ -> arrivals := Sim.Engine.now e :: !arrivals);
  (* 1 MB/s = 1 byte/us: a 1000-byte message serializes for 1000us *)
  Sim.Network.set_egress_rate net "a" ~bytes_per_s:1_000_000.0;
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:1000 "m1";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:1000 "m2";
  Sim.Engine.run_until e 1_000_000.0;
  (match List.rev !arrivals with
  | [ t1; t2 ] ->
    (* m1: serialization 1000 + latency 100; m2 queues behind m1 *)
    Alcotest.(check (float 1.0)) "first arrival" 1100.0 t1;
    Alcotest.(check (float 1.0)) "second queues" 2100.0 t2
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l));
  Alcotest.(check bool) "queue delay recorded" true
    (Sim.Network.egress_queue_delay net "a" >= 999.0)

let test_egress_uncapped_nodes_unaffected () =
  let e, net = make_net () in
  let at = ref 0.0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> at := Sim.Engine.now e);
  Sim.Network.set_egress_rate net "a" ~bytes_per_s:1_000_000.0;
  (* c has no cap: only the latency model applies *)
  Sim.Network.register net "c" (fun ~src:_ _ -> ());
  Sim.Network.send net ~src:"c" ~dst:"b" ~size:100_000 "big";
  Sim.Engine.run_until e 100_000.0;
  (* c->b is cross-region (10ms): only the latency model applies, no
     serialization despite the 100KB size *)
  Alcotest.(check (float 1.0)) "no serialization on uncapped sender" 10_000.0 !at

let test_topology_queries () =
  let topo = Sim.Topology.create () in
  Sim.Topology.add_node topo ~id:"a" ~region:"r1";
  Sim.Topology.add_node topo ~id:"b" ~region:"r2";
  Sim.Topology.add_node topo ~id:"c" ~region:"r1";
  Alcotest.(check (list string)) "regions" [ "r1"; "r2" ] (Sim.Topology.regions topo);
  Alcotest.(check (list string)) "in region" [ "a"; "c" ]
    (Sim.Topology.nodes_in_region topo "r1");
  Alcotest.(check bool) "same region" true (Sim.Topology.same_region topo "a" "c");
  Alcotest.(check string) "region_of" "r2" (Sim.Topology.region_of topo "b")

let test_vec_basics () =
  let v = Vec.create ~dummy:0 in
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 41);
  let removed = Vec.truncate_to v 90 in
  Alcotest.(check int) "removed count" 10 (List.length removed);
  Alcotest.(check (list int)) "removed order" [ 91; 92; 93; 94; 95; 96; 97; 98; 99; 100 ]
    removed;
  Alcotest.(check (list int)) "slice" [ 1; 2; 3 ] (Vec.slice v ~lo:0 ~hi:3)

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "float in [0,1)" `Quick test_rng_float_range;
        Alcotest.test_case "int bound" `Quick test_rng_int_bound;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "min ordering" `Quick test_heap_ordering;
        Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
        QCheck_alcotest.to_alcotest prop_heap_pops_in_key_seq_order;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "event ordering" `Quick test_engine_ordering;
        Alcotest.test_case "cancellation" `Quick test_engine_cancel;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
        Alcotest.test_case "run_until horizon" `Quick test_engine_run_until_horizon;
        Alcotest.test_case "same-instant fifo with cancels" `Quick
          test_engine_same_instant_fifo_with_cancels;
      ] );
    ( "sim.network",
      [
        Alcotest.test_case "delivery" `Quick test_network_delivery;
        Alcotest.test_case "latency applied" `Quick test_network_latency_applied;
        Alcotest.test_case "down node drops" `Quick test_network_down_node_drops;
        Alcotest.test_case "region partition" `Quick test_network_partition;
        Alcotest.test_case "isolate node" `Quick test_network_isolate_node;
        Alcotest.test_case "fault drop accounting" `Quick test_network_fault_drop_accounting;
        Alcotest.test_case "fault duplicate delivers twice" `Quick
          test_network_fault_duplicate_delivers_twice;
        Alcotest.test_case "fault determinism under seed" `Quick test_network_fault_determinism;
        Alcotest.test_case "heal_all clears faults" `Quick test_network_heal_all_clears_faults;
        Alcotest.test_case "byte accounting" `Quick test_network_byte_accounting;
        Alcotest.test_case "link latency override" `Quick test_link_latency_override;
      ] );
    ( "sim.egress",
      [
        Alcotest.test_case "capacity serializes sends" `Quick test_egress_capacity_serializes;
        Alcotest.test_case "uncapped unaffected" `Quick test_egress_uncapped_nodes_unaffected;
      ] );
    ( "sim.topology",
      [ Alcotest.test_case "queries" `Quick test_topology_queries ] );
    ("util.vec", [ Alcotest.test_case "basics" `Quick test_vec_basics ]);
  ]
