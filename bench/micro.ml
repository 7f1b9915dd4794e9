(* M1 — Bechamel micro-benchmarks (real wall-clock time) of the hot data
   structures: GTID-set operations, log append, CRC-32 checksumming,
   quorum evaluation, the leader's commit-index computation, the event
   heap, and histogram recording. *)

open Bechamel
open Toolkit

let gtid_set_add =
  Test.make ~name:"gtid_set.add (1k gnos)"
    (Staged.stage (fun () ->
         let set = ref Binlog.Gtid_set.empty in
         for g = 1 to 1000 do
           set := Binlog.Gtid_set.add !set (Binlog.Gtid.make ~source:"srv" ~gno:g)
         done;
         !set))

let gtid_set_contains =
  let set =
    let s = ref Binlog.Gtid_set.empty in
    for g = 1 to 10_000 do
      if g mod 3 <> 0 then s := Binlog.Gtid_set.add !s (Binlog.Gtid.make ~source:"srv" ~gno:g)
    done;
    !s
  in
  Test.make ~name:"gtid_set.contains (10k-gno set)"
    (Staged.stage (fun () ->
         Binlog.Gtid_set.contains set (Binlog.Gtid.make ~source:"srv" ~gno:7777)))

let log_append =
  Test.make ~name:"log_store.append (100 txns)"
    (Staged.stage (fun () ->
         let log = Binlog.Log_store.create () in
         for i = 1 to 100 do
           Binlog.Log_store.append log
             (Binlog.Entry.make
                ~opid:(Binlog.Opid.make ~term:1 ~index:i)
                (Binlog.Entry.Transaction
                   {
                     gtid = Binlog.Gtid.make ~source:"srv" ~gno:i;
                     events =
                       [
                         Binlog.Event.make
                           (Binlog.Event.Write_rows
                              {
                                table = "t";
                                ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
                              });
                       ];
                   }))
         done;
         log))

let crc32 =
  let payload = String.make 512 'x' in
  Test.make ~name:"crc32 (512B payload)" (Staged.stage (fun () -> Binlog.Checksum.string payload))

let quorum_check =
  let cfg =
    {
      Raft.Types.members =
        List.concat_map
          (fun r ->
            List.map
              (fun i ->
                {
                  Raft.Types.id = Printf.sprintf "n%s%d" r i;
                  region = r;
                  voter = true;
                  kind = Raft.Types.Mysql_server;
                })
              [ 1; 2; 3 ])
          [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6" ];
    }
  in
  let acks = [ "nr11"; "nr12" ] in
  Test.make ~name:"flexiraft data-quorum check (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.data_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
           ~leader_region:"r1" ~acks))

(* The leader's commit index over the §6.1 topology (six regions of one
   MySQL server and two logtailers, plus two learners) in FlexiRaft's
   production mode: one order statistic per ack. *)
let commit_index =
  let cfg =
    {
      Raft.Types.members =
        List.map
          (fun (s : Myraft.Cluster.member_spec) ->
            {
              Raft.Types.id = s.spec_id;
              region = s.spec_region;
              voter = s.spec_voter;
              kind = s.spec_kind;
            })
          (Myraft.Cluster.paper_members ());
    }
  in
  let matches = Hashtbl.create 32 in
  List.iteri
    (fun i m -> Hashtbl.replace matches m.Raft.Types.id (1_000 + (i * 7 mod 13)))
    cfg.Raft.Types.members;
  Test.make ~name:"commit_index (§6.1 config)"
    (Staged.stage (fun () ->
         Raft.Quorum.acked_index Raft.Quorum.Single_region_dynamic cfg ~leader_region:"r1"
           ~self:"mysql1" ~self_durable:1_010 ~match_index:(Hashtbl.find_opt matches)))

(* Steady-state event queue: 10k pending events, each run pops the
   earliest and schedules a replacement a little later (the hold model
   of a discrete-event kernel). *)
let heap_push_pop =
  let h = Sim.Heap.create () in
  let seq = ref 0 in
  let rng = Sim.Rng.of_int 10_000 in
  for _ = 1 to 10_000 do
    incr seq;
    Sim.Heap.push h ~key:(Sim.Rng.float rng *. 1_000.0) ~seq:!seq !seq
  done;
  Test.make ~name:"heap_push_pop (10k pending)"
    (Staged.stage (fun () ->
         let key = Sim.Heap.min_key h in
         let v = Sim.Heap.pop_min h in
         incr seq;
         Sim.Heap.push h ~key:(key +. Sim.Rng.float rng *. 1_000.0) ~seq:!seq v))

let pipeline_group_drain =
  (* submit → flush group → consensus release → engine commit for 100
     txns; exercises the preallocated group accumulator end to end *)
  Test.make ~name:"pipeline group drain (100 txns)"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let p =
           Myraft.Pipeline.create ~engine ~params:Myraft.Params.default ~is_primary_path:true
             ()
         in
         let done_count = ref 0 in
         for i = 1 to 100 do
           Myraft.Pipeline.submit p
             {
               Myraft.Pipeline.label = "txn";
               flush = (fun () -> Ok i);
               finish = (fun ~ok:_ -> incr done_count);
             }
         done;
         Myraft.Pipeline.notify_commit_index p 100;
         Sim.Engine.run_for engine (1.0 *. Sim.Engine.s);
         assert (!done_count = 100);
         !done_count))

let histogram_record =
  Test.make ~name:"histogram.record (1k samples)"
    (Staged.stage (fun () ->
         let h = Stats.Histogram.create () in
         for i = 1 to 1000 do
           Stats.Histogram.record h (float_of_int i)
         done;
         h))

let run () =
  Common.header "M1 — micro-benchmarks (Bechamel, real time)";
  let tests =
    [
      gtid_set_add;
      gtid_set_contains;
      log_append;
      crc32;
      quorum_check;
      commit_index;
      heap_push_pop;
      pipeline_group_drain;
      histogram_record;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-42s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
        analyzed)
    tests
