(* Self-healing fleet driver.

   {!Planner} plans; this module executes, and [next_step] is the one
   place that issues membership changes: provision and add a learner,
   promote it once caught up, move leadership off a leader the step
   displaces, demote, remove.  Two callers drive it:

   - {!apply_target}: the blocking loop to an arbitrary target config.
     It waits for each step to commit (or for the catch-up or the
     transfer it reported) and re-plans from the live config, so a
     leader change mid-flight just restarts the remainder.

   - {!start}: the reconcile loop.  Every tick it compares liveness
     telemetry against the current config, declares a member dead once
     it has been down past [dead_after], and issues one step towards
     [Planner.replace cfg ~dead ~by:replacement] per tick.  No operator
     input: the target is re-derived from the config and the world each
     tick, so leader failovers or its own crashes in mid-replacement
     cannot wedge it. *)

let s = Sim.Engine.s

let ms = Sim.Engine.ms

let leader_raft cluster =
  match Myraft.Cluster.raft_leader cluster with
  | Some id -> Myraft.Cluster.raft_of cluster id
  | None -> None

(* The newest installed config across live nodes — the fleet's effective
   membership even while a leader election is in flight. *)
let newest_config cluster =
  List.fold_left
    (fun acc id ->
      if Myraft.Cluster.is_crashed cluster id then acc
      else
        match Myraft.Cluster.raft_of cluster id with
        | None -> acc
        | Some r -> (
          let cid = Raft.Node.config_id r in
          match acc with
          | Some (best, _) when not (Raft.Types.cfg_id_newer cid best) -> acc
          | _ -> Some (cid, Raft.Node.config r)))
    None
    (Myraft.Cluster.member_ids cluster)
  |> Option.map snd

let spec_of_member m =
  match m.Raft.Types.kind with
  | Raft.Types.Mysql_server ->
    Myraft.Cluster.mysql ~voter:false m.Raft.Types.id m.Raft.Types.region
  | Raft.Types.Logtailer -> Myraft.Cluster.logtailer m.Raft.Types.id m.Raft.Types.region

let provision cluster m =
  if Myraft.Cluster.node cluster m.Raft.Types.id = None then
    Myraft.Cluster.add_server cluster (spec_of_member m)

let caught_up cluster ~leader id =
  match Myraft.Cluster.raft_of cluster id with
  | Some r ->
    Binlog.Opid.index (Raft.Node.last_opid r) >= Raft.Node.commit_index leader
  | None -> false

(* ----- plan execution ----- *)

(* Wait until some leader has no pending change and [pred] holds on its
   config. *)
let wait_settled cluster ~timeout pred =
  Myraft.Cluster.run_until cluster ~timeout (fun () ->
      match leader_raft cluster with
      | Some r ->
        (not (Raft.Node.has_pending_config_change r)) && pred (Raft.Node.config r)
      | None -> false)

(* A graceful transfer target when the next step displaces the leader:
   a voter retained by the target config (preferring MySQL members,
   which can serve as primary without an immediate re-transfer). *)
let transfer_target cluster ~leader_id ~current ~target =
  let keeps m =
    m.Raft.Types.id <> leader_id
    && (not (Myraft.Cluster.is_crashed cluster m.Raft.Types.id))
    &&
    match Raft.Types.find_member target m.Raft.Types.id with
    | Some tm -> tm.Raft.Types.voter
    | None -> false
  in
  let candidates = List.filter keeps (Raft.Types.voters current) in
  let mysqls =
    List.filter (fun m -> m.Raft.Types.kind = Raft.Types.Mysql_server) candidates
  in
  match (mysqls, candidates) with
  | m :: _, _ | [], m :: _ -> Some m.Raft.Types.id
  | [], [] -> None

type progress =
  | Settled
  | Issued of Planner.step
  | Transferring of string
  | Catching_up of string
  | Failed of string

(* The one place membership changes are issued: plan from the leader's
   live config and act on the first step.  Never blocks — a learner not
   yet caught up, or a leader the step displaces, is reported back for
   the caller to wait on. *)
let next_step cluster leader ~target =
  let current = Raft.Node.config leader in
  match Planner.plan ~current ~target with
  | Error e -> Failed e
  | Ok [] -> Settled
  | Ok (step :: _) -> (
    let leader_id = Raft.Node.id leader in
    match step with
    | (Planner.Demote id | Planner.Remove id) when id = leader_id -> (
      match transfer_target cluster ~leader_id ~current ~target with
      | None -> Failed "no transfer target outside the displaced leader"
      | Some tgt -> (
        match Myraft.Cluster.transfer_leadership cluster ~target:tgt with
        | Error e -> Failed ("transfer to " ^ tgt ^ ": " ^ e)
        | Ok () -> Transferring leader_id))
    | Planner.Promote id when not (caught_up cluster ~leader id) -> Catching_up id
    | _ -> (
      let issued =
        match step with
        | Planner.Add_learner m ->
          provision cluster m;
          Raft.Node.add_member leader m
        | Planner.Promote id -> Raft.Node.promote_learner leader id
        | Planner.Demote id -> Raft.Node.demote_voter leader id
        | Planner.Remove id -> Raft.Node.remove_member leader id
      in
      match issued with
      | Ok _ -> Issued step
      | Error e -> Failed (Planner.describe_step step ^ ": " ^ e)))

let step_reached cfg = function
  | Planner.Add_learner m -> Raft.Types.is_member cfg m.Raft.Types.id
  | Planner.Promote id -> (
    match Raft.Types.find_member cfg id with
    | Some m -> m.Raft.Types.voter
    | None -> false)
  | Planner.Demote id -> (
    match Raft.Types.find_member cfg id with
    | Some m -> not m.Raft.Types.voter
    | None -> false)
  | Planner.Remove id -> not (Raft.Types.is_member cfg id)

(* How long [apply_target] waits for one step to commit, a learner to
   catch up or a displaced leader to hand off. *)
let step_timeout = 30.0 *. s

let apply_target ?(on_step = fun _ -> ()) cluster ~target =
  match Planner.validate target with
  | Error e -> Error e
  | Ok () ->
    let budget =
      2
      * (List.length (Raft.Types.member_ids target)
        + List.length (Myraft.Cluster.member_ids cluster)
        + 4)
    in
    let rec drive done_steps =
      if done_steps > budget then Error "step budget exhausted (plan not converging)"
      else if
        not (wait_settled cluster ~timeout:step_timeout (fun _ -> true))
      then Error "no settled leader"
      else
        match leader_raft cluster with
        | None -> Error "leader vanished"
        | Some leader -> (
          match next_step cluster leader ~target with
          | Settled -> Ok done_steps
          | Failed e -> Error e
          | Catching_up id ->
            if
              Myraft.Cluster.run_until cluster ~timeout:step_timeout (fun () ->
                  caught_up cluster ~leader id)
            then drive done_steps
            else Error ("promote " ^ id ^ ": did not catch up for promotion")
          | Transferring from ->
            if
              Myraft.Cluster.run_until cluster ~timeout:step_timeout (fun () ->
                  match Myraft.Cluster.raft_leader cluster with
                  | Some l -> l <> from
                  | None -> false)
            then drive (done_steps + 1)
            else Error "leadership transfer did not complete"
          | Issued step ->
            if
              not
                (wait_settled cluster ~timeout:step_timeout (fun cfg ->
                     step_reached cfg step))
            then Error (Planner.describe_step step ^ " did not commit")
            else begin
              on_step step;
              drive (done_steps + 1)
            end)
    in
    drive 0

(* ----- the reconcile loop ----- *)

type job = {
  j_corpse : string;
  j_replacement : string;
  j_started : float;
}

type replacement = {
  r_corpse : string;
  r_replacement : string;
  r_duration_us : float;
}

type t = {
  cluster : Myraft.Cluster.t;
  engine : Sim.Engine.t;
  check_interval : float;
  dead_after : float;
  metrics : Obs.Metrics.t;
  down_since : (string, float) Hashtbl.t;
  mutable job : job option;
  mutable in_flight : Planner.step option;
  mutable gen : int;
  mutable completed : replacement list;
  mutable running : bool;
}

let fresh_replacement_id t corpse =
  let rec pick () =
    t.gen <- t.gen + 1;
    let id = Printf.sprintf "%s-r%d" corpse t.gen in
    if Myraft.Cluster.node t.cluster id = None then id else pick ()
  in
  pick ()

(* Liveness telemetry: first-seen-down timestamps over the current
   membership; revived or evicted nodes drop out of the table. *)
let note_liveness t cfg =
  let now = Sim.Engine.now t.engine in
  let member_ids = Raft.Types.member_ids cfg in
  Hashtbl.iter
    (fun id _ -> if not (List.mem id member_ids) then Hashtbl.remove t.down_since id)
    (Hashtbl.copy t.down_since);
  List.iter
    (fun id ->
      if Myraft.Cluster.is_crashed t.cluster id then begin
        if not (Hashtbl.mem t.down_since id) then Hashtbl.replace t.down_since id now
      end
      else Hashtbl.remove t.down_since id)
    member_ids

let dead_members t cfg =
  let now = Sim.Engine.now t.engine in
  List.filter
    (fun m ->
      match Hashtbl.find_opt t.down_since m.Raft.Types.id with
      | Some since -> now -. since >= t.dead_after
      | None -> false)
    (Raft.Types.config_members cfg)

let bump t name = Obs.Metrics.bump t.metrics name

let complete t job =
  t.job <- None;
  Hashtbl.remove t.down_since job.j_corpse;
  let r =
    {
      r_corpse = job.j_corpse;
      r_replacement = job.j_replacement;
      r_duration_us = Sim.Engine.now t.engine -. job.j_started;
    }
  in
  t.completed <- t.completed @ [ r ];
  bump t "healer.completed"

(* One step towards the job's target, re-derived from the live config
   every tick, so a leader failover mid-replacement (or a duplicate
   action swallowed by the one-change-at-a-time rule) costs one tick,
   not correctness. *)
let advance t leader cfg job =
  let provisioned () = Myraft.Cluster.node t.cluster job.j_replacement <> None in
  if (not (Myraft.Cluster.is_crashed t.cluster job.j_corpse)) && not (provisioned ())
  then begin
    (* The "dead" node came back before we spent anything on it. *)
    Hashtbl.remove t.down_since job.j_corpse;
    t.job <- None;
    bump t "healer.cancelled"
  end
  else
    let target =
      match Raft.Types.find_member cfg job.j_corpse with
      | None -> cfg (* corpse evicted: settled once nothing else moves *)
      | Some corpse ->
        Result.get_ok
          (Planner.replace cfg ~dead:job.j_corpse
             ~by:{ corpse with Raft.Types.id = job.j_replacement })
    in
    let was_provisioned = provisioned () in
    let progress = next_step t.cluster leader ~target in
    if (not was_provisioned) && provisioned () then bump t "healer.provisioned";
    match progress with
    | Settled -> complete t job
    | Issued step -> t.in_flight <- Some step
    | Transferring _ | Catching_up _ | Failed _ -> () (* retry next tick *)

(* Count the step issued last once it has committed: the first settled
   config after it either shows it or shows it lost to a leader change,
   in which case the next tick re-issues it and that one is counted. *)
let note_committed t cfg =
  match t.in_flight with
  | None -> ()
  | Some step ->
    t.in_flight <- None;
    if step_reached cfg step then
      bump t
        (match step with
        | Planner.Add_learner _ -> "healer.joined"
        | Planner.Promote _ -> "healer.promoted"
        | Planner.Demote _ -> "healer.demoted"
        | Planner.Remove _ -> "healer.evicted")

let tick t =
  bump t "healer.ticks";
  match leader_raft t.cluster with
  | None -> () (* elections first; liveness clocks keep their epoch *)
  | Some leader -> (
    let cfg = Raft.Node.config leader in
    note_liveness t cfg;
    if not (Raft.Node.has_pending_config_change leader) then begin
      note_committed t cfg;
      match t.job with
      | Some job -> advance t leader cfg job
      | None -> (
        match dead_members t cfg with
        | [] -> ()
        | corpse :: _ ->
          t.job <-
            Some
              {
                j_corpse = corpse.Raft.Types.id;
                j_replacement = fresh_replacement_id t corpse.Raft.Types.id;
                j_started = Sim.Engine.now t.engine;
              };
          bump t "healer.detected")
    end)

let start ?(check_interval = 500.0 *. ms) ?(dead_after = 10.0 *. s) cluster =
  let t =
    {
      cluster;
      engine = Myraft.Cluster.engine cluster;
      check_interval;
      dead_after;
      metrics = Obs.Metrics.create ~node:"healer" ();
      down_since = Hashtbl.create 8;
      job = None;
      in_flight = None;
      gen = 0;
      completed = [];
      running = true;
    }
  in
  let rec loop () =
    if t.running then begin
      tick t;
      ignore (Sim.Engine.schedule t.engine ~delay:t.check_interval loop)
    end
  in
  ignore (Sim.Engine.schedule t.engine ~delay:t.check_interval loop);
  t

let stop t = t.running <- false

let replacements t = t.completed

let metrics_snapshot t = Obs.Metrics.snapshot t.metrics
