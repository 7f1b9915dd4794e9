(* Property-based suites over the core data structures:

   - Log_store: random append/rotate/truncate/purge sequences preserve
     the store invariants (contiguity, tail opid, GTID-set consistency,
     file-range partitioning).
   - Quorum: FlexiRaft intersection — any satisfied election quorum
     shares a voter with any satisfiable data quorum of the last
     leader's region; the order-statistic commit index and lease
     threshold equal the per-threshold quorum scans they replaced. *)

(* ----- log store ----- *)

type op = Append | Rotate | Truncate of int | Purge

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (12, return Append);
        (2, return Rotate);
        (2, map (fun n -> Truncate n) (1 -- 10));
        (1, return Purge);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Append -> "A"
             | Rotate -> "R"
             | Truncate n -> Printf.sprintf "T%d" n
             | Purge -> "P")
           ops))
    QCheck.Gen.(list_size (5 -- 60) op_gen)

let txn_entry ~term ~index =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term ~index)
    (Binlog.Entry.Transaction
       {
         gtid = Binlog.Gtid.make ~source:"src" ~gno:index;
         events =
           [
             Binlog.Event.make
               (Binlog.Event.Write_rows
                  { table = "t"; ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ] });
           ];
       })

(* Replay ops against the store and a naive model (list of live
   entries), then compare observable state. *)
let run_ops ops =
  let log = Binlog.Log_store.create () in
  let term = ref 1 in
  List.iter
    (fun op ->
      match op with
      | Append ->
        let index = Binlog.Log_store.last_index log + 1 in
        Binlog.Log_store.append log (txn_entry ~term:!term ~index)
      | Rotate ->
        Binlog.Log_store.rotate log;
        incr term (* new terms land in new files now and then *)
      | Truncate back ->
        let last = Binlog.Log_store.last_index log in
        let from_index = max (Binlog.Log_store.purged_below log) (last - back + 1) in
        if from_index >= 1 && from_index <= last then
          ignore (Binlog.Log_store.truncate_from log ~from_index)
      | Purge -> (
        (* purge everything except the final file, like the janitor *)
        match List.rev (Binlog.Log_store.file_names log) with
        | keep :: _ :: _ -> Binlog.Log_store.purge_to log ~file:keep
        | _ -> ()))
    ops;
  log

let prop_log_store_invariants =
  QCheck.Test.make ~name:"log store invariants under random ops" ~count:500 ops_arb
    (fun ops ->
      let log = run_ops ops in
      let last = Binlog.Log_store.last_index log in
      (* tail opid matches the tail entry when it exists *)
      (match Binlog.Log_store.entry_at log last with
      | Some e ->
        Binlog.Opid.equal (Binlog.Entry.opid e) (Binlog.Log_store.last_opid log)
      | None -> last = 0 || Binlog.Log_store.purged_below log > last)
      && (* indexes are self-consistent and contiguous where present *)
      List.for_all
        (fun i ->
          match Binlog.Log_store.entry_at log i with
          | Some e -> Binlog.Entry.index e = i
          | None -> i < Binlog.Log_store.purged_below log)
        (List.init last (fun i -> i + 1))
      && (* the GTID set matches exactly the live transaction entries *)
      (let live_gnos =
         List.filter_map
           (fun e -> Option.map Binlog.Gtid.gno (Binlog.Entry.gtid e))
           (Binlog.Log_store.all_entries log)
       in
       List.for_all
         (fun gno ->
           Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log)
             (Binlog.Gtid.make ~source:"src" ~gno))
         live_gnos)
      && (* file ranges partition the live index space in order *)
      (let ranges =
         List.filter (fun (_, first, _, _) -> first > 0) (Binlog.Log_store.file_ranges log)
       in
       let rec contiguous = function
         | (_, _, last_a, _) :: ((_, first_b, _, _) :: _ as rest) ->
           first_b = last_a + 1 && contiguous rest
         | _ -> true
       in
       contiguous ranges))

let prop_log_store_append_after_anything =
  QCheck.Test.make ~name:"append always works at tail+1" ~count:500 ops_arb (fun ops ->
      let log = run_ops ops in
      let index = Binlog.Log_store.last_index log + 1 in
      Binlog.Log_store.append log (txn_entry ~term:1000 ~index);
      Binlog.Opid.index (Binlog.Log_store.last_opid log) = index)

let prop_log_store_term_at_boundary =
  QCheck.Test.make ~name:"term_at answers at the purge boundary" ~count:500 ops_arb
    (fun ops ->
      let log = run_ops ops in
      let boundary = Binlog.Log_store.purge_boundary_opid log in
      Binlog.Opid.equal boundary Binlog.Opid.zero
      || Binlog.Log_store.term_at log (Binlog.Opid.index boundary)
         = Some (Binlog.Opid.term boundary))

(* ----- quorum intersection ----- *)

let config_gen =
  QCheck.Gen.(
    let* region_count = 2 -- 4 in
    let* sizes = list_repeat region_count (1 -- 4) in
    let members =
      List.concat
        (List.mapi
           (fun r size ->
             List.init size (fun i ->
                 {
                   Raft.Types.id = Printf.sprintf "n%d_%d" r i;
                   region = Printf.sprintf "r%d" r;
                   voter = true;
                   kind = Raft.Types.Mysql_server;
                 }))
           sizes)
    in
    return { Raft.Types.members })

let subset_gen cfg =
  QCheck.Gen.(
    let ids = Raft.Types.voter_ids cfg in
    let* bits = list_repeat (List.length ids) bool in
    return (List.filter_map (fun (id, b) -> if b then Some id else None)
              (List.combine ids bits)))

let intersection_case_gen =
  QCheck.Gen.(
    let* cfg = config_gen in
    let regions = Raft.Types.regions_with_voters cfg in
    let* leader_region = oneofl regions in
    let* candidate_region = oneofl regions in
    let* votes = subset_gen cfg in
    let* acks = subset_gen cfg in
    return (cfg, leader_region, candidate_region, votes, acks))

let intersection_arb =
  QCheck.make
    ~print:(fun (cfg, lr, cr, votes, acks) ->
      Printf.sprintf "cfg=[%s] leader_region=%s cand_region=%s votes=[%s] acks=[%s]"
        (Raft.Types.describe_config cfg) lr cr (String.concat "," votes)
        (String.concat "," acks))
    intersection_case_gen

(* The safety core of FlexiRaft: if a data quorum committed in the last
   leader's region, any successful election quorum (with that leader as
   the authoritative constraint) must share at least one voter with it. *)
let prop_flexiraft_quorum_intersection =
  QCheck.Test.make ~name:"flexiraft election/data quorums intersect" ~count:1000
    intersection_arb (fun (cfg, leader_region, candidate_region, votes, acks) ->
      let mode = Raft.Quorum.Single_region_dynamic in
      let election_ok =
        Raft.Quorum.election_quorum_satisfied mode cfg ~candidate_region
          ~last_leader:(Some (5, leader_region)) ~vote_constraint:None ~votes
      in
      let data_ok = Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region ~acks in
      (not (election_ok && data_ok))
      || List.exists (fun v -> List.mem v acks) votes)

(* Majority mode: two satisfied quorums of any kind always intersect. *)
let prop_majority_quorums_intersect =
  QCheck.Test.make ~name:"majority quorums intersect" ~count:1000 intersection_arb
    (fun (cfg, leader_region, candidate_region, votes, acks) ->
      let mode = Raft.Quorum.Majority in
      let election_ok =
        Raft.Quorum.election_quorum_satisfied mode cfg ~candidate_region
          ~last_leader:(Some (5, leader_region)) ~vote_constraint:None ~votes
      in
      let data_ok = Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region ~acks in
      (not (election_ok && data_ok)) || List.exists (fun v -> List.mem v acks) votes)

(* Pessimistic bootstrap: with no known leader, a satisfied election
   quorum intersects EVERY region's possible data quorum. *)
let prop_pessimistic_election_intersects_all_regions =
  QCheck.Test.make ~name:"pessimistic election intersects all regions" ~count:1000
    intersection_arb (fun (cfg, leader_region, candidate_region, votes, acks) ->
      let mode = Raft.Quorum.Single_region_dynamic in
      let election_ok =
        Raft.Quorum.election_quorum_satisfied mode cfg ~candidate_region
          ~last_leader:None ~vote_constraint:None ~votes
      in
      let data_ok = Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region ~acks in
      (not (election_ok && data_ok)) || List.exists (fun v -> List.mem v acks) votes)

(* ----- order-statistic quorums ----- *)

(* A leader's view of its group: a random config (1-4 regions, voters
   and learners, MySQL servers and logtailers), a leader that may be a
   learner or not in the config at all, the peers present in its table
   with their match indexes and acknowledged (local, global) send
   stamps.  Small value ranges force ties. *)
type ack_case = {
  mode : Raft.Quorum.mode;
  cfg : Raft.Types.config;
  leader : Raft.Types.node_id;
  leader_region : string;
  self_durable : int;
  last_index : int;
  commit_index : int;
  matches : (Raft.Types.node_id * int) list;
  stamps : (Raft.Types.node_id * (float * float)) list;
  now : float;
  now_global : float;
}

let ack_case_gen =
  QCheck.Gen.(
    let* mode =
      oneofl Raft.Quorum.[ Majority; Single_region_dynamic; Region_majorities ]
    in
    let* region_count = 1 -- 4 in
    let* regions =
      list_repeat region_count
        (list_size (1 -- 4)
           (pair (frequencyl [ (3, true); (1, false) ])
              (oneofl Raft.Types.[ Mysql_server; Logtailer ])))
    in
    let members =
      List.concat
        (List.mapi
           (fun r ms ->
             List.mapi
               (fun i (voter, kind) ->
                 {
                   Raft.Types.id = Printf.sprintf "n%d_%d" r i;
                   region = Printf.sprintf "r%d" r;
                   voter;
                   kind;
                 })
               ms)
           regions)
    in
    let cfg = { Raft.Types.members } in
    let ids = Raft.Types.member_ids cfg in
    let* leader = frequency [ (4, oneofl ids); (1, return "absent") ] in
    let* leader_region = oneofl (List.init region_count (Printf.sprintf "r%d")) in
    let* self_durable = 0 -- 12 in
    let* last_index = map (( + ) self_durable) (0 -- 3) in
    let* commit_index = 0 -- last_index in
    let peers = List.filter (fun id -> id <> leader) ids in
    let* present =
      list_repeat (List.length peers) (frequencyl [ (5, true); (1, false) ])
    in
    let peers =
      List.filter_map
        (fun (id, p) -> if p then Some id else None)
        (List.combine peers present)
    in
    let* match_values = list_repeat (List.length peers) (0 -- 14) in
    let stamp = oneofl [ neg_infinity; 1.0; 2.0; 3.0; 4.0; 5.0 ] in
    let* stamp_values =
      list_repeat (List.length peers) (pair stamp (oneofl [ 1.0; 2.0; 3.0; 7.0 ]))
    in
    let* now = oneofl [ 0.5; 3.0; 5.0; 6.0 ] in
    let* now_global = oneofl [ 2.0; 5.0; 9.0 ] in
    return
      {
        mode;
        cfg;
        leader;
        leader_region;
        self_durable;
        last_index;
        commit_index;
        matches = List.combine peers match_values;
        stamps =
          List.map2 (fun id (l, g) -> (id, (if l = neg_infinity then (l, l) else (l, g))))
            peers stamp_values;
        now;
        now_global;
      })

let ack_case_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf
        "mode=%s cfg=[%s] leader=%s leader_region=%s durable=%d last=%d commit=%d \
         matches=[%s] stamps=[%s] now=(%g,%g)"
        (Raft.Quorum.mode_to_string c.mode)
        (Raft.Types.describe_config c.cfg) c.leader c.leader_region c.self_durable
        c.last_index c.commit_index
        (String.concat ","
           (List.map (fun (id, m) -> Printf.sprintf "%s:%d" id m) c.matches))
        (String.concat ","
           (List.map (fun (id, (l, g)) -> Printf.sprintf "%s:(%g,%g)" id l g) c.stamps))
        c.now c.now_global)
    ack_case_gen

(* Oracle: the per-index scan the leader used to run — walk up from the
   commit index while the acks at [n] satisfy the data quorum. *)
let scan_commit_index c =
  let rec scan n best =
    if n > c.last_index then best
    else
      let acks =
        (if c.self_durable >= n then [ c.leader ] else [])
        @ List.filter_map (fun (id, m) -> if m >= n then Some id else None) c.matches
      in
      if
        Raft.Quorum.data_quorum_satisfied c.mode c.cfg ~leader_region:c.leader_region
          ~acks
      then scan (n + 1) (Some n)
      else best
  in
  scan (c.commit_index + 1) None

(* Oracle: the lease's old sort-and-find over (local, global) candidate
   stamps, newest first; ties on the local stamp fall to the newer
   global one. *)
let sort_and_find_lease c =
  let candidates =
    (c.now, c.now_global)
    :: List.filter_map
         (fun (_, (l, g)) -> if l > neg_infinity then Some (l, g) else None)
         c.stamps
  in
  let quorum_at (threshold, _) =
    let acks =
      c.leader
      :: List.filter_map
           (fun (id, (l, _)) -> if l >= threshold then Some id else None)
           c.stamps
    in
    Raft.Quorum.data_quorum_satisfied c.mode c.cfg ~leader_region:c.leader_region ~acks
  in
  List.find_opt quorum_at (List.sort_uniq (fun a b -> compare b a) candidates)

let prop_order_statistic_commit_index =
  QCheck.Test.make ~name:"order-statistic commit index = per-index scan" ~count:2000
    ack_case_arb (fun c ->
      let acked =
        Raft.Quorum.acked_index c.mode c.cfg ~leader_region:c.leader_region ~self:c.leader
          ~self_durable:c.self_durable
          ~match_index:(fun id -> List.assoc_opt id c.matches)
      in
      let advanced =
        match acked with
        | Some n when min n c.last_index > c.commit_index -> Some (min n c.last_index)
        | _ -> None
      in
      advanced = scan_commit_index c)

let prop_order_statistic_lease =
  QCheck.Test.make ~name:"order-statistic lease threshold = sort-and-find" ~count:2000
    ack_case_arb (fun c ->
      let threshold =
        Raft.Quorum.lease_threshold c.mode c.cfg ~leader_region:c.leader_region
          ~self:c.leader ~now:c.now ~now_global:c.now_global
          ~stamp:(fun id ->
            match List.assoc_opt id c.stamps with Some (l, _) -> l | None -> neg_infinity)
          ~iter_stamps:(fun f -> List.iter (fun (_, (l, g)) -> f l g) c.stamps)
      in
      threshold = sort_and_find_lease c)

(* ----- log cache: sliced reads ----- *)

(* The ring-backed [read_slice] must return byte-for-byte what the
   pre-slice copying implementation returned: walk from [from_index]
   preferring the cache, fall back to the log, stop at the first missing
   index, stop before the entry that would blow the byte budget — except
   that the first entry always ships. *)

let cache_case_gen =
  QCheck.Gen.(
    let* n = 1 -- 60 in
    let* sizes = list_repeat n (0 -- 800) in
    let* cache_budget = 200 -- 20_000 in
    let* log_hole = 0 -- 3 in
    let* from_index = 1 -- n in
    let* max_count = 0 -- 20 in
    let* byte_budget = 50 -- 5_000 in
    return (sizes, cache_budget, log_hole, from_index, max_count, byte_budget))

let cache_arb =
  QCheck.make
    ~print:(fun (sizes, cb, hole, fi, mc, bb) ->
      Printf.sprintf "n=%d cache=%dB hole=%d from=%d count=%d budget=%dB"
        (List.length sizes) cb hole fi mc bb)
    cache_case_gen

let cache_entry ~index ~size =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term:1 ~index)
    (Binlog.Entry.Transaction
       {
         gtid = Binlog.Gtid.make ~source:"src" ~gno:index;
         events =
           [
             Binlog.Event.make
               (Binlog.Event.Write_rows
                  {
                    table = "t";
                    ops = [ Binlog.Event.Insert { key = "k"; value = String.make size 'x' } ];
                  });
           ];
       })

(* Reference copying read, straight from the pre-slice implementation. *)
let reference_read cache entries ~read_log ~from_index ~max_count ~max_bytes =
  let rec collect idx n bytes acc =
    if n = 0 then List.rev acc
    else
      let e =
        if Raft.Log_cache.contains cache ~index:idx then Some entries.(idx - 1)
        else read_log idx
      in
      match e with
      | None -> List.rev acc
      | Some e ->
        let sz = Binlog.Entry.size e in
        if acc <> [] && bytes + sz > max_bytes then List.rev acc
        else collect (idx + 1) (n - 1) (bytes + sz) (e :: acc)
  in
  collect from_index max_count 0 []

let prop_cache_slice_equals_copying_read =
  QCheck.Test.make ~name:"sliced reads equal copying reads" ~count:500 cache_arb
    (fun (sizes, cache_budget, log_hole, from_index, max_count, byte_budget) ->
      let n = List.length sizes in
      let entries =
        Array.of_list (List.mapi (fun i size -> cache_entry ~index:(i + 1) ~size) sizes)
      in
      let cache = Raft.Log_cache.create ~max_bytes:cache_budget () in
      Array.iter (Raft.Log_cache.put cache) entries;
      (* the log is missing the last [log_hole] entries, so a cold read
         past the hole stops early *)
      let read_log idx =
        if idx >= 1 && idx <= n - log_hole then Some entries.(idx - 1) else None
      in
      let expected =
        reference_read cache entries ~read_log ~from_index ~max_count
          ~max_bytes:byte_budget
      in
      let got =
        Raft.Log_cache.read_slice cache ~max_bytes:byte_budget ~from_index ~max_count
          ~read_log ()
      in
      Array.length got = List.length expected
      && List.for_all2
           (fun e g ->
             Binlog.Entry.opid e = Binlog.Entry.opid g
             && Binlog.Entry.payload e = Binlog.Entry.payload g
             && Int32.equal (Binlog.Entry.checksum e) (Binlog.Entry.checksum g))
           expected (Array.to_list got))

(* A slice handed to the transport must survive the cache evicting (or
   truncating) the range under it: the slice holds the entries, not ring
   slots. *)
let test_slice_survives_eviction () =
  let cache = Raft.Log_cache.create ~max_bytes:4_000 () in
  let no_log _ = None in
  for i = 1 to 10 do
    Raft.Log_cache.put cache (cache_entry ~index:i ~size:100)
  done;
  let slice =
    Raft.Log_cache.read_slice cache ~from_index:1 ~max_count:10 ~read_log:no_log ()
  in
  Alcotest.(check int) "sliced all ten" 10 (Array.length slice);
  (* stuff the cache until indexes 1..10 are gone *)
  let i = ref 11 in
  while Raft.Log_cache.contains cache ~index:10 do
    Raft.Log_cache.put cache (cache_entry ~index:!i ~size:600);
    incr i
  done;
  Alcotest.(check bool) "evicted under the slice" false
    (Raft.Log_cache.contains cache ~index:1);
  Array.iteri
    (fun k e ->
      Alcotest.(check int) "index intact" (k + 1) (Binlog.Entry.index e);
      Alcotest.(check bool) "entry still verifies" true (Binlog.Entry.verify e))
    slice

(* ----- windowed replication equivalence ----- *)

(* Pipelining is a transport optimisation: under drop/duplicate/reorder
   link faults, a window of 8 must deliver exactly the same committed
   transaction sequence as stop-and-wait (window 1), and every replica's
   log must match the leader's once the faults heal. *)

let window_case_gen =
  QCheck.Gen.(
    let* seed = 1 -- 10_000 in
    let* drop = 0 -- 20 in
    let* dup = 0 -- 20 in
    let* reorder = 0 -- 30 in
    let* txns = 10 -- 30 in
    return (seed, float_of_int drop /. 100.0, float_of_int dup /. 100.0,
            float_of_int reorder /. 100.0, txns))

let window_arb =
  QCheck.make
    ~print:(fun (seed, drop, dup, reorder, txns) ->
      Printf.sprintf "seed=%d drop=%.2f dup=%.2f reorder=%.2f txns=%d" seed drop dup
        reorder txns)
    window_case_gen

(* One run: returns (committed gtid gnos on the leader, per-node log opids). *)
let run_windowed ~window ~seed ~drop ~dup ~reorder ~txns =
  let params =
    { Test_raft.majority_params with
      Raft.Node.max_inflight_aes = window;
      (* keep n1 leader for the whole run so both runs accept the same
         writes: the property compares transports, not elections *)
      missed_heartbeats = 1_000_000
    }
  in
  let h = Test_raft.make_harness ~seed ~params (Test_raft.three_nodes ()) in
  Test_raft.elect h "n1";
  let spec =
    { Sim.Network.no_faults with
      drop;
      duplicate = dup;
      reorder;
      reorder_delay = 5.0 *. Sim.Engine.ms
    }
  in
  List.iter (fun id -> Sim.Network.set_node_faults h.Test_raft.net id spec)
    [ "n1"; "n2"; "n3" ];
  for i = 1 to txns do
    ignore
      (Raft.Node.client_append
         (Test_raft.raft (Test_raft.get h "n1"))
         (txn_entry ~term:1 ~index:i |> Binlog.Entry.payload));
    Sim.Engine.run_for h.Test_raft.engine (2.0 *. Sim.Engine.ms)
  done;
  Sim.Engine.run_for h.Test_raft.engine Sim.Engine.s;
  Sim.Network.heal_all h.Test_raft.net;
  let n1 = Test_raft.get h "n1" in
  let target = Binlog.Log_store.last_index n1.Test_raft.store in
  let converged =
    Test_raft.run_until h ~timeout:(60.0 *. Sim.Engine.s) (fun () ->
        List.for_all
          (fun id ->
            let n = Test_raft.get h id in
            Raft.Node.commit_index (Test_raft.raft n) = target
            && Binlog.Log_store.last_index n.Test_raft.store = target)
          [ "n1"; "n2"; "n3" ])
  in
  let committed =
    List.filter_map
      (fun e ->
        if Binlog.Entry.index e <= Raft.Node.commit_index (Test_raft.raft n1) then
          Option.map Binlog.Gtid.gno (Binlog.Entry.gtid e)
        else None)
      (Binlog.Log_store.all_entries n1.Test_raft.store)
  in
  let logs =
    List.map
      (fun id ->
        List.map Binlog.Entry.opid
          (Binlog.Log_store.all_entries (Test_raft.get h id).Test_raft.store))
      [ "n1"; "n2"; "n3" ]
  in
  (converged, committed, logs)

let prop_window_equivalence =
  QCheck.Test.make ~name:"window=8 commits exactly what window=1 commits" ~count:15
    window_arb (fun (seed, drop, dup, reorder, txns) ->
      let c1, committed1, logs1 = run_windowed ~window:1 ~seed ~drop ~dup ~reorder ~txns in
      let c8, committed8, logs8 = run_windowed ~window:8 ~seed ~drop ~dup ~reorder ~txns in
      (* both transports converge once healed *)
      c1 && c8
      (* every replica's log matches its leader's (log matching) *)
      && List.for_all (fun l -> l = List.hd logs1) logs1
      && List.for_all (fun l -> l = List.hd logs8) logs8
      (* and the committed transaction sequence is identical *)
      && committed1 = List.init txns (fun i -> i + 1)
      && committed8 = committed1)

let suites =
  [
    ( "properties.log_store",
      [
        QCheck_alcotest.to_alcotest prop_log_store_invariants;
        QCheck_alcotest.to_alcotest prop_log_store_append_after_anything;
        QCheck_alcotest.to_alcotest prop_log_store_term_at_boundary;
      ] );
    ( "properties.quorum",
      [
        QCheck_alcotest.to_alcotest prop_flexiraft_quorum_intersection;
        QCheck_alcotest.to_alcotest prop_majority_quorums_intersect;
        QCheck_alcotest.to_alcotest prop_pessimistic_election_intersects_all_regions;
        QCheck_alcotest.to_alcotest prop_order_statistic_commit_index;
        QCheck_alcotest.to_alcotest prop_order_statistic_lease;
      ] );
    ( "properties.log_cache",
      [
        QCheck_alcotest.to_alcotest prop_cache_slice_equals_copying_read;
        Alcotest.test_case "slice survives eviction" `Quick test_slice_survives_eviction;
      ] );
    ( "properties.window",
      [ QCheck_alcotest.to_alcotest prop_window_equivalence ] );
  ]
