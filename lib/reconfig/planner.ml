(* Reconfiguration planner: sequence an arbitrary target membership as
   safe single steps.

   Logless reconfiguration (lib/raft) accepts one change at a time and
   each accepted config must quorum-overlap its predecessor.  Any jump
   between memberships can be decomposed into steps that each move at
   most one voter:

     1. every new member joins as a learner (no voter-set change);
     2. learners that the target wants voting are promoted one by one;
     3. voters the target demotes or drops leave the voter set one by
        one (a drop demotes on its way out);
     4. non-members are removed.

   Promotions before demotions, so the voter set grows through the
   union: at every intermediate step the old and new quorums intersect
   even when the target replaces every voter.  The planner is pure —
   executing a plan (with catch-up waits between promote steps and
   leadership transfers out of demoted leaders) is {!Healer}'s job. *)

type step =
  | Add_learner of Raft.Types.member (* join the ring as a non-voter *)
  | Promote of string (* learner -> voter *)
  | Demote of string (* voter -> learner *)
  | Remove of string (* drop a learner from the ring *)

let describe_step = function
  | Add_learner m -> "add-learner " ^ Raft.Types.describe_member m
  | Promote id -> "promote " ^ id
  | Demote id -> "demote " ^ id
  | Remove id -> "remove " ^ id

(* A config a plan may legally target: at least one voter, unique
   non-empty ids, a region on every member. *)
let validate cfg =
  let ids = Raft.Types.member_ids cfg in
  if Raft.Types.voters cfg = [] then Error "target has no voters"
  else if List.exists (fun id -> id = "") ids then Error "target has an empty member id"
  else if List.length (List.sort_uniq compare ids) <> List.length ids then
    Error "target has duplicate member ids"
  else if
    List.exists (fun m -> m.Raft.Types.region = "") (Raft.Types.config_members cfg)
  then Error "target has a member without a region"
  else Ok ()

(* Apply one step to a config, checking its precondition; the executor
   folds the real cluster through exactly this function's results. *)
let apply_step cfg step =
  let members = Raft.Types.config_members cfg in
  match step with
  | Add_learner m ->
    if Raft.Types.is_member cfg m.Raft.Types.id then
      Error (m.Raft.Types.id ^ " is already a member")
    else
      Ok { Raft.Types.members = members @ [ { m with Raft.Types.voter = false } ] }
  | Promote id -> (
    match Raft.Types.find_member cfg id with
    | None -> Error (id ^ " is not a member")
    | Some m when m.Raft.Types.voter -> Error (id ^ " is already a voter")
    | Some _ ->
      Ok
        {
          Raft.Types.members =
            List.map
              (fun m ->
                if m.Raft.Types.id = id then { m with Raft.Types.voter = true } else m)
              members;
        })
  | Demote id -> (
    match Raft.Types.find_member cfg id with
    | None -> Error (id ^ " is not a member")
    | Some m when not m.Raft.Types.voter -> Error (id ^ " is already a learner")
    | Some _ ->
      Ok
        {
          Raft.Types.members =
            List.map
              (fun m ->
                if m.Raft.Types.id = id then { m with Raft.Types.voter = false } else m)
              members;
        })
  | Remove id -> (
    match Raft.Types.find_member cfg id with
    | None -> Error (id ^ " is not a member")
    | Some m when m.Raft.Types.voter ->
      Error (id ^ " is still a voter (demote first)")
    | Some _ ->
      Ok { Raft.Types.members = List.filter (fun m -> m.Raft.Types.id <> id) members })

(* Order the target's member list relative to the current one is not
   meaningful; identity and voter flag are.  Region or kind moves under
   the same id are rejected — that is a replacement (new id), not a
   reconfiguration. *)
let plan ~current ~target =
  match validate target with
  | Error e -> Error e
  | Ok () -> (
    let retained_conflicts =
      List.filter_map
        (fun tm ->
          match Raft.Types.find_member current tm.Raft.Types.id with
          | Some cm
            when cm.Raft.Types.region <> tm.Raft.Types.region
                 || cm.Raft.Types.kind <> tm.Raft.Types.kind ->
            Some tm.Raft.Types.id
          | _ -> None)
        (Raft.Types.config_members target)
    in
    match retained_conflicts with
    | id :: _ ->
      Error (id ^ " changes region or kind; replace it under a new id instead")
    | [] ->
      let adds =
        List.filter
          (fun tm -> not (Raft.Types.is_member current tm.Raft.Types.id))
          (Raft.Types.config_members target)
      in
      let promotes =
        List.filter_map
          (fun tm ->
            if not tm.Raft.Types.voter then None
            else
              match Raft.Types.find_member current tm.Raft.Types.id with
              | Some cm when cm.Raft.Types.voter -> None
              | _ -> Some tm.Raft.Types.id (* retained learner or fresh add *))
          (Raft.Types.config_members target)
      in
      let demotes_retained =
        List.filter_map
          (fun cm ->
            match Raft.Types.find_member target cm.Raft.Types.id with
            | Some tm when cm.Raft.Types.voter && not tm.Raft.Types.voter ->
              Some cm.Raft.Types.id
            | _ -> None)
          (Raft.Types.config_members current)
      in
      let dropped =
        List.filter
          (fun cm -> not (Raft.Types.is_member target cm.Raft.Types.id))
          (Raft.Types.config_members current)
      in
      let steps =
        (* a fresh node always joins as a learner; Promote upgrades it *)
        List.map (fun m -> Add_learner { m with Raft.Types.voter = false }) adds
        @ List.map (fun id -> Promote id) promotes
        @ List.map (fun id -> Demote id) demotes_retained
        @ List.concat_map
            (fun m ->
              if m.Raft.Types.voter then
                [ Demote m.Raft.Types.id; Remove m.Raft.Types.id ]
              else [ Remove m.Raft.Types.id ])
            dropped
      in
      (* Self-check: folding the steps must land exactly on the target
         (same members, same voter flags), with every intermediate
         config valid and quorum-overlapping its predecessor. *)
      let rec verify cfg = function
        | [] ->
          if
            Raft.Types.same_members cfg target
            && List.sort compare (Raft.Types.voter_ids cfg)
               = List.sort compare (Raft.Types.voter_ids target)
          then Ok steps
          else Error "internal: plan does not reach the target"
        | st :: rest -> (
          match apply_step cfg st with
          | Error e -> Error ("internal: " ^ describe_step st ^ ": " ^ e)
          | Ok next ->
            if Raft.Types.voter_delta cfg next > 1 then
              Error ("internal: " ^ describe_step st ^ " moves more than one voter")
            else if not (Raft.Types.voters_overlap cfg next) then
              Error ("internal: " ^ describe_step st ^ " breaks quorum overlap")
            else verify next rest)
      in
      verify current steps)

(* [dead]'s slot handed to [by] at the corpse's voter grade.  A [by]
   that is already a voter stays one, so re-deriving the target from a
   config mid-replacement (corpse already demoted) keeps pointing the
   same way.  A [dead] that is not a member is an operator error (a
   mistyped id), not a no-op. *)
let replace cfg ~dead ~by =
  match Raft.Types.find_member cfg dead with
  | None -> Error (dead ^ " is not a member")
  | Some d ->
    let voter =
      d.Raft.Types.voter
      ||
      match Raft.Types.find_member cfg by.Raft.Types.id with
      | Some b -> b.Raft.Types.voter
      | None -> false
    in
    Ok
      {
        Raft.Types.members =
          List.filter_map
            (fun m ->
              if m.Raft.Types.id = dead then Some { by with Raft.Types.voter }
              else if m.Raft.Types.id = by.Raft.Types.id then None
              else Some m)
            (Raft.Types.config_members cfg);
      }

let is_noop ~current ~target =
  match plan ~current ~target with Ok [] -> true | _ -> false
