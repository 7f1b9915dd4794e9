(* Logless dynamic reconfiguration: the Reconfig.Planner's safe
   single-step decomposition, Healer.apply_target driving a cluster to
   an arbitrary target membership, the self-healing reconcile loop
   replacing a permanently dead node without operator input, and the
   leader-crash-mid-reconfig regression (the pending-change latch is
   derived from config commitment, so a successor must never stay
   wedged by its predecessor's in-flight change). *)

let s = Helpers.s

let member ?(voter = true) ?(kind = Raft.Types.Mysql_server) id region =
  { Raft.Types.id; region; voter; kind }

let cfg members = { Raft.Types.members }

let voter_ids c = List.sort compare (Raft.Types.voter_ids c)

let step_names steps = List.map Reconfig.Planner.describe_step steps

(* ----- planner ----- *)

let base_config () =
  cfg
    [
      member "my1" "r1";
      member "lt1a" "r1" ~voter:false ~kind:Raft.Types.Logtailer;
      member "my2" "r2";
    ]

let test_planner_noop () =
  let c = base_config () in
  (match Reconfig.Planner.plan ~current:c ~target:c with
  | Ok [] -> ()
  | Ok steps -> Alcotest.failf "noop planned %d steps" (List.length steps)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "is_noop" true (Reconfig.Planner.is_noop ~current:c ~target:c)

let test_planner_add_voter_is_two_steps () =
  let current = base_config () in
  let target = cfg (Raft.Types.config_members current @ [ member "my3" "r3" ]) in
  match Reconfig.Planner.plan ~current ~target with
  | Error e -> Alcotest.fail e
  | Ok steps ->
    Alcotest.(check (list string)) "learner-first decomposition"
      [ "add-learner my3@r3(mysql,non-voter)"; "promote my3" ]
      (step_names steps)

let test_planner_swap_voter () =
  (* replace my2 with a fresh node under a new id: the voter set must
     grow through the union (add+promote before demote+remove). *)
  let current = base_config () in
  let target =
    cfg
      (List.map
         (fun m -> if m.Raft.Types.id = "my2" then member "my2b" "r2" else m)
         (Raft.Types.config_members current))
  in
  match Reconfig.Planner.plan ~current ~target with
  | Error e -> Alcotest.fail e
  | Ok steps ->
    Alcotest.(check (list string)) "swap order"
      [
        "add-learner my2b@r2(mysql,non-voter)";
        "promote my2b";
        "demote my2";
        "remove my2";
      ]
      (step_names steps)

let test_planner_demote_and_remove_learner () =
  let current = base_config () in
  (* drop the learner, demote a voter in place *)
  let target =
    cfg
      (List.filter_map
         (fun m ->
           if m.Raft.Types.id = "lt1a" then None
           else if m.Raft.Types.id = "my2" then Some { m with Raft.Types.voter = false }
           else Some m)
         (Raft.Types.config_members current))
  in
  match Reconfig.Planner.plan ~current ~target with
  | Error e -> Alcotest.fail e
  | Ok steps ->
    Alcotest.(check (list string)) "demote + remove"
      [ "demote my2"; "remove lt1a" ]
      (step_names steps)

let test_planner_rejects_retained_id_region_change () =
  let current = base_config () in
  let target =
    cfg
      (List.map
         (fun m -> if m.Raft.Types.id = "my2" then member "my2" "r9" else m)
         (Raft.Types.config_members current))
  in
  match Reconfig.Planner.plan ~current ~target with
  | Ok _ -> Alcotest.fail "region change of a retained id must be rejected"
  | Error e ->
    Alcotest.(check bool) "suggests replacement" true (Helpers.contains e "new id")

let test_planner_rejects_invalid_targets () =
  let current = base_config () in
  (match
     Reconfig.Planner.plan ~current
       ~target:(cfg [ member "lt1a" "r1" ~voter:false ~kind:Raft.Types.Logtailer ])
   with
  | Ok _ -> Alcotest.fail "voterless target accepted"
  | Error _ -> ());
  match
    Reconfig.Planner.plan ~current ~target:(cfg [ member "my1" "r1"; member "my1" "r1" ])
  with
  | Ok _ -> Alcotest.fail "duplicate ids accepted"
  | Error _ -> ()

(* Every plan the planner emits must hold its own invariants: at most
   one voter-set change per step and overlapping voter sets between
   consecutive configs.  Re-verify externally by folding apply_step. *)
let test_planner_steps_are_single_voter_changes () =
  let current = base_config () in
  let target =
    cfg
      [
        member "my1" "r1";
        member "my2b" "r2";
        member "my3" "r3";
        member "lt3a" "r3" ~voter:false ~kind:Raft.Types.Logtailer;
      ]
  in
  match Reconfig.Planner.plan ~current ~target with
  | Error e -> Alcotest.fail e
  | Ok steps ->
    let final =
      List.fold_left
        (fun acc step ->
          match Reconfig.Planner.apply_step acc step with
          | Error e -> Alcotest.failf "apply %s: %s" (Reconfig.Planner.describe_step step) e
          | Ok next ->
            Alcotest.(check bool)
              (Reconfig.Planner.describe_step step ^ " moves <= 1 voter")
              true
              (abs (Raft.Types.voter_delta acc next) <= 1);
            Alcotest.(check bool)
              (Reconfig.Planner.describe_step step ^ " overlaps")
              true
              (Raft.Types.voters_overlap acc next);
            next)
        current steps
    in
    Alcotest.(check (list string)) "lands on target" (voter_ids target) (voter_ids final);
    Alcotest.(check bool) "same members" true (Raft.Types.same_members final target)

(* Replacing any member of any valid config plans cleanly onto exactly
   the [replace] target, and redundancy never dips mid-swap: no
   intermediate config has fewer voters or fewer members than the
   starting one. *)
let replace_case_gen =
  QCheck.Gen.(
    let kind = oneofl [ Raft.Types.Mysql_server; Raft.Types.Logtailer ] in
    let region = oneofl [ "r1"; "r2"; "r3" ] in
    let* n = 1 -- 7 in
    let* grades = list_repeat n bool in
    let* regions = list_repeat n region in
    let* kinds = list_repeat n kind in
    let* first_voter = 0 -- (n - 1) in
    let* corpse = 0 -- (n - 1) in
    let* by_region = region in
    let members =
      List.mapi
        (fun i ((voter, region), kind) ->
          {
            Raft.Types.id = Printf.sprintf "m%d" i;
            region;
            voter = voter || i = first_voter;
            kind;
          })
        (List.combine (List.combine grades regions) kinds)
    in
    let dead = List.nth members corpse in
    return
      ( cfg members,
        dead.Raft.Types.id,
        { dead with Raft.Types.id = "fresh"; region = by_region; voter = false } ))

let prop_replace_never_dips =
  QCheck.Test.make ~name:"replace plans exactly and never dips redundancy" ~count:500
    (QCheck.make
       ~print:(fun (c, dead, _) ->
         Printf.sprintf "%s replacing %s"
           (String.concat ","
              (List.map Raft.Types.describe_member (Raft.Types.config_members c)))
           dead)
       replace_case_gen)
    (fun (current, dead, by) ->
      match Reconfig.Planner.replace current ~dead ~by with
      | Error e -> QCheck.Test.fail_report e
      | Ok target ->
        let voters c = List.length (Raft.Types.voter_ids c) in
        let size c = List.length (Raft.Types.member_ids c) in
        let grade c id =
          Option.map (fun m -> m.Raft.Types.voter) (Raft.Types.find_member c id)
        in
        grade target "fresh" = grade current dead
        && (not (Raft.Types.is_member target dead))
        &&
        match Reconfig.Planner.plan ~current ~target with
        | Error e -> QCheck.Test.fail_report e
        | Ok steps ->
          let final =
            List.fold_left
              (fun acc step ->
                match Reconfig.Planner.apply_step acc step with
                | Error e -> QCheck.Test.fail_report e
                | Ok next ->
                  if voters next < voters current || size next < size current then
                    QCheck.Test.fail_reportf "%s dips redundancy"
                      (Reconfig.Planner.describe_step step);
                  next)
              current steps
          in
          Raft.Types.same_members final target && voter_ids final = voter_ids target)

(* ----- cluster integration ----- *)

(* Three voters per region: under the default single-region-dynamic
   quorum a crashed leader's region must still muster a majority of its
   own voters for the successor's election quorum. *)
let six_members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
  ]

let test_apply_target_swap () =
  let cluster = Helpers.bootstrapped ~seed:21 ~members:(six_members ()) () in
  ignore (Helpers.write_n cluster 10);
  let leader = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  let target =
    cfg
      (List.map
         (fun m ->
           if m.Raft.Types.id = "lt2a" then
             member "lt2c" "r2" ~kind:Raft.Types.Logtailer
           else m)
         (Raft.Types.config_members (Raft.Node.config leader)))
  in
  (match Reconfig.Healer.apply_target cluster ~target with
  | Ok n -> Alcotest.(check int) "four committed steps" 4 n
  | Error e -> Alcotest.failf "apply_target: %s" e);
  let final = Option.get (Reconfig.Healer.newest_config cluster) in
  Alcotest.(check bool) "lt2a evicted" false (Raft.Types.is_member final "lt2a");
  Alcotest.(check bool) "lt2c voter" true
    (match Raft.Types.find_member final "lt2c" with
    | Some m -> m.Raft.Types.voter
    | None -> false);
  (* the ring is still writable and the newcomer converges *)
  Helpers.check_ok "write after swap" (Helpers.direct_write cluster ~key:"post" ~value:"v");
  let caught_up () =
    match (Myraft.Cluster.raft_of cluster "lt2c", Myraft.Cluster.raft_of cluster "mysql1") with
    | Some r, Some l ->
      Binlog.Opid.index (Raft.Node.last_opid r) >= Raft.Node.commit_index l
    | _ -> false
  in
  Alcotest.(check bool) "replacement caught up" true
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) caught_up)

(* The self-healing loop must restore full redundancy after a permanent
   node kill with no operator input: detect, provision, join-as-learner,
   catch up, promote, evict. *)
let test_healer_replaces_dead_voter () =
  let cluster = Helpers.bootstrapped ~seed:23 ~members:(six_members ()) () in
  ignore (Helpers.write_n cluster 10);
  let healer =
    Reconfig.Healer.start ~check_interval:(0.25 *. s) ~dead_after:(2.0 *. s) cluster
  in
  Myraft.Cluster.crash cluster "lt2b";
  let replaced () = Reconfig.Healer.replacements healer <> [] in
  Alcotest.(check bool) "replacement completed" true
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) replaced);
  Reconfig.Healer.stop healer;
  let r = List.hd (Reconfig.Healer.replacements healer) in
  Alcotest.(check string) "corpse" "lt2b" r.Reconfig.Healer.r_corpse;
  let final = Option.get (Reconfig.Healer.newest_config cluster) in
  Alcotest.(check bool) "corpse evicted" false (Raft.Types.is_member final "lt2b");
  (match Raft.Types.find_member final r.Reconfig.Healer.r_replacement with
  | Some m ->
    Alcotest.(check bool) "replacement is a voter" true m.Raft.Types.voter;
    Alcotest.(check string) "same region" "r2" m.Raft.Types.region
  | None -> Alcotest.fail "replacement not in the final config");
  Alcotest.(check int) "redundancy restored" 6
    (List.length (Raft.Types.config_members final));
  Helpers.check_ok "ring writable" (Helpers.direct_write cluster ~key:"post" ~value:"v")

(* One driver: the reconcile loop and a direct [apply_target] of the
   planner's replacement target reach the same membership on the same
   seeded cluster — same voters and same regions, up to the
   replacement's id. *)
let test_reconcile_matches_apply_target () =
  let killed () =
    let cluster = Helpers.bootstrapped ~seed:29 ~members:(six_members ()) () in
    ignore (Helpers.write_n cluster 10);
    Myraft.Cluster.crash cluster "mysql2";
    cluster
  in
  let shape cluster ~replacement =
    let final = Option.get (Reconfig.Healer.newest_config cluster) in
    List.sort compare
      (List.map
         (fun m ->
           ( (if m.Raft.Types.id = replacement then "<replacement>" else m.Raft.Types.id),
             m.Raft.Types.region,
             m.Raft.Types.voter ))
         (Raft.Types.config_members final))
  in
  let reconciled =
    let cluster = killed () in
    let healer =
      Reconfig.Healer.start ~check_interval:(0.25 *. s) ~dead_after:(2.0 *. s) cluster
    in
    Alcotest.(check bool) "reconcile loop completed" true
      (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () ->
           Reconfig.Healer.replacements healer <> []));
    Reconfig.Healer.stop healer;
    let r = List.hd (Reconfig.Healer.replacements healer) in
    Alcotest.(check string) "corpse" "mysql2" r.Reconfig.Healer.r_corpse;
    let m = Reconfig.Healer.metrics_snapshot healer in
    Alcotest.(check (list int)) "one committed step each: join, promote, demote, evict"
      [ 1; 1; 1; 1 ]
      (List.map
         (fun c -> Obs.Metrics.counter_of m ("healer." ^ c))
         [ "joined"; "promoted"; "demoted"; "evicted" ]);
    shape cluster ~replacement:r.Reconfig.Healer.r_replacement
  in
  let applied =
    let cluster = killed () in
    Myraft.Cluster.run_for cluster (2.0 *. s);
    let current = Option.get (Reconfig.Healer.newest_config cluster) in
    let corpse = Option.get (Raft.Types.find_member current "mysql2") in
    (match
       Result.bind
         (Reconfig.Planner.replace current ~dead:"mysql2"
            ~by:{ corpse with Raft.Types.id = "mysql2-new" })
         (fun target -> Reconfig.Healer.apply_target cluster ~target)
     with
    | Ok n -> Alcotest.(check int) "add, promote, demote, remove" 4 n
    | Error e -> Alcotest.failf "apply_target: %s" e);
    shape cluster ~replacement:"mysql2-new"
  in
  Alcotest.(check (list (triple string string bool)))
    "same membership" reconciled applied;
  Alcotest.(check int) "redundancy restored" 6 (List.length applied)

(* A revived node cancels its own replacement if the healer has not
   spent a membership change on it yet. *)
let test_healer_cancels_on_revival () =
  let cluster = Helpers.bootstrapped ~seed:25 ~members:(six_members ()) () in
  let healer =
    Reconfig.Healer.start ~check_interval:(0.25 *. s) ~dead_after:(20.0 *. s) cluster
  in
  Myraft.Cluster.crash cluster "lt2b";
  Myraft.Cluster.run_for cluster (5.0 *. s);
  Myraft.Cluster.restart cluster "lt2b";
  Myraft.Cluster.run_for cluster (30.0 *. s);
  Reconfig.Healer.stop healer;
  Alcotest.(check (list (pair string string))) "no replacement ran" []
    (List.map
       (fun r -> (r.Reconfig.Healer.r_corpse, r.Reconfig.Healer.r_replacement))
       (Reconfig.Healer.replacements healer));
  let final = Option.get (Reconfig.Healer.newest_config cluster) in
  Alcotest.(check bool) "revived node still a member" true
    (Raft.Types.is_member final "lt2b")

(* Satellite regression: the leader crashes right after initiating a
   membership change, before it commits.  has_pending_config_change is
   derived from config commitment under the *current* term, so the
   successor must not inherit a stuck latch — it finishes or supersedes
   the change and accepts new ones. *)
let test_leader_crash_mid_reconfig_does_not_wedge () =
  let cluster = Helpers.bootstrapped ~seed:27 ~members:(six_members ()) () in
  ignore (Helpers.write_n cluster 5);
  let leader = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  Myraft.Cluster.add_server cluster (Myraft.Cluster.logtailer "lt2c" "r2");
  (match
     Raft.Node.add_member leader
       (member "lt2c" "r2" ~voter:false ~kind:Raft.Types.Logtailer)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_member: %s" e);
  Alcotest.(check bool) "change pending on the initiator" true
    (Raft.Node.has_pending_config_change leader);
  (* kill the initiator before the change can commit *)
  Myraft.Cluster.crash cluster "mysql1";
  let new_leader () =
    match Myraft.Cluster.raft_leader cluster with
    | Some id when id <> "mysql1" -> Myraft.Cluster.raft_of cluster id
    | _ -> None
  in
  Alcotest.(check bool) "successor elected" true
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () -> new_leader () <> None));
  (* the successor settles: no stuck pending-change latch *)
  Alcotest.(check bool) "latch clears on the successor" true
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match new_leader () with
         | Some r -> not (Raft.Node.has_pending_config_change r)
         | None -> false));
  (* and it accepts a fresh membership change *)
  let accepted = ref false in
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         (match new_leader () with
         | Some r when not (Raft.Node.has_pending_config_change r) -> (
           match Raft.Node.demote_voter r "lt2a" with
           | Ok _ -> accepted := true
           | Error _ -> ())
         | _ -> ());
         !accepted));
  Alcotest.(check bool) "successor accepts a new change" true !accepted

(* The installed config and its identity are durable: a restarted node
   comes back with the config it had adopted, not the seed config. *)
let test_config_durable_across_restart () =
  let cluster = Helpers.bootstrapped ~seed:29 ~members:(six_members ()) () in
  let leader = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  (match Raft.Node.demote_voter leader "lt2b" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "demote: %s" e);
  Alcotest.(check bool) "change committed" true
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         not (Raft.Node.has_pending_config_change leader)));
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let cid_before =
    Raft.Node.config_id (Option.get (Myraft.Cluster.raft_of cluster "lt2a"))
  in
  Myraft.Cluster.crash cluster "lt2a";
  Myraft.Cluster.run_for cluster (1.0 *. s);
  Myraft.Cluster.restart cluster "lt2a";
  let restarted = Option.get (Myraft.Cluster.raft_of cluster "lt2a") in
  Alcotest.(check bool) "identity survived the restart" true
    (Raft.Types.cfg_id_compare (Raft.Node.config_id restarted) cid_before >= 0);
  Alcotest.(check bool) "membership survived the restart" true
    (match Raft.Types.find_member (Raft.Node.config restarted) "lt2b" with
    | Some m -> not m.Raft.Types.voter
    | None -> false)

let suites =
  [
    ( "reconfig.planner",
      [
        Alcotest.test_case "noop" `Quick test_planner_noop;
        Alcotest.test_case "add voter = learner first" `Quick
          test_planner_add_voter_is_two_steps;
        Alcotest.test_case "swap voter order" `Quick test_planner_swap_voter;
        Alcotest.test_case "demote + remove learner" `Quick
          test_planner_demote_and_remove_learner;
        Alcotest.test_case "retained id region change rejected" `Quick
          test_planner_rejects_retained_id_region_change;
        Alcotest.test_case "invalid targets rejected" `Quick
          test_planner_rejects_invalid_targets;
        Alcotest.test_case "steps are single safe voter changes" `Quick
          test_planner_steps_are_single_voter_changes;
        QCheck_alcotest.to_alcotest prop_replace_never_dips;
      ] );
    ( "reconfig.healer",
      [
        Alcotest.test_case "apply_target swaps a member" `Quick test_apply_target_swap;
        Alcotest.test_case "replaces a dead voter unattended" `Quick
          test_healer_replaces_dead_voter;
        Alcotest.test_case "revival cancels the replacement" `Quick
          test_healer_cancels_on_revival;
        Alcotest.test_case "reconcile loop = apply_target of replace" `Quick
          test_reconcile_matches_apply_target;
      ] );
    ( "reconfig.logless",
      [
        Alcotest.test_case "leader crash mid-reconfig does not wedge" `Quick
          test_leader_crash_mid_reconfig_does_not_wedge;
        Alcotest.test_case "config durable across restart" `Quick
          test_config_durable_across_restart;
      ] );
  ]
