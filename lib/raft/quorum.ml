(* Quorum evaluation, including FlexiRaft's flexible commit quorums (§4.1).

   Three modes:
   - [Majority]: classic Raft — majority of all voters for both data
     commit and leader election.
   - [Single_region_dynamic]: FlexiRaft's production mode.  The data
     commit quorum is a majority of the voters in the *leader's* region
     (leader self-vote + one of the two in-region logtailers, in the
     paper's topology).  The leader-election quorum must intersect every
     possible data quorum, which FlexiRaft achieves by requiring a
     majority in the candidate's own region *and* in the region of the
     last known leader; when no leader is known the candidate falls back
     to the pessimistic requirement of a majority in every region that
     hosts voters.
   - [Region_majorities]: multi-region commit quorum — a majority of
     regions, each satisfied by an in-region majority (grid-style);
     offered for applications choosing consistency over latency.

   All functions are pure; the node supplies the vote/ack sets. *)

type mode = Majority | Single_region_dynamic | Region_majorities

let mode_to_string = function
  | Majority -> "majority"
  | Single_region_dynamic -> "single-region-dynamic"
  | Region_majorities -> "region-majorities"

let majority_of n = (n / 2) + 1

(* Does [acks] contain a majority of [members]? *)
let majority_satisfied members acks =
  let n = List.length members in
  n > 0
  &&
  let got = List.length (List.filter (fun m -> List.mem m.Types.id acks) members) in
  got >= majority_of n

let region_majority config ~region acks =
  majority_satisfied (Types.voters_in_region config region) acks

let majority_of_region_majorities config acks =
  let regions = Types.regions_with_voters config in
  let satisfied = List.filter (fun r -> region_majority config ~region:r acks) regions in
  List.length satisfied >= majority_of (List.length regions)

(* Data commit quorum: has the entry been acknowledged by enough voters,
   given the leader's region? *)
let data_quorum_satisfied mode config ~leader_region ~acks =
  match mode with
  | Majority -> majority_satisfied (Types.voters config) acks
  | Single_region_dynamic -> region_majority config ~region:leader_region acks
  | Region_majorities -> majority_of_region_majorities config acks

(* The [k]-th largest of [values] (sorting them), or [neg_infinity] when
   there are fewer than [k]. *)
let kth_largest values k =
  if k > Array.length values then neg_infinity
  else begin
    Array.sort (fun a b -> Float.compare b a) values;
    values.(k - 1)
  end

(* The in-group majority-th largest ack over the voters [in_group]
   selects, read in one pass over the members without building lists. *)
let group_value config ~in_group ~ack =
  let voter m = m.Types.voter && in_group m in
  let members = config.Types.members in
  let n = List.fold_left (fun n m -> if voter m then n + 1 else n) 0 members in
  let values = Array.make n 0.0 in
  ignore
    (List.fold_left
       (fun i m ->
         if voter m then begin
           values.(i) <- ack m;
           i + 1
         end
         else i)
       0 members);
  kth_largest values (majority_of n)

(* Order-statistic form of [data_quorum_satisfied] for acks that are
   monotone in a threshold: voter [m] acknowledges every threshold up to
   [ack m] (a match index, an acknowledged send time).  Returns the
   largest [x] such that the voters with [ack m >= x] satisfy the data
   quorum, or [neg_infinity] when no threshold is satisfiable.  A quorum
   of [k] voters out of a group reaches exactly the group's k-th largest
   value, so:
   - [Majority]: the majority-th largest over all voters;
   - [Single_region_dynamic]: the majority-th largest over the leader's
     region;
   - [Region_majorities]: each region's in-region majority-th largest,
     then the majority-th largest of those.
   O(voters log voters) per call. *)
let data_quorum_value mode config ~leader_region ~ack =
  match mode with
  | Majority -> group_value config ~in_group:(fun _ -> true) ~ack
  | Single_region_dynamic ->
    group_value config ~in_group:(fun m -> m.Types.region = leader_region) ~ack
  | Region_majorities ->
    let regions = Array.of_list (Types.regions_with_voters config) in
    let values =
      Array.map
        (fun r -> group_value config ~in_group:(fun m -> m.Types.region = r) ~ack)
        regions
    in
    kth_largest values (majority_of (Array.length values))

(* The leader's commit point: the highest index a data quorum holds,
   the leader's own ack being its durable (fsynced) index and a peer's
   its confirmed match index.  [None] when no quorum holds anything. *)
let acked_index mode config ~leader_region ~self ~self_durable ~match_index =
  let v =
    data_quorum_value mode config ~leader_region ~ack:(fun m ->
        if m.Types.id = self then float_of_int self_durable
        else
          match match_index m.Types.id with
          | Some i -> float_of_int i
          | None -> neg_infinity)
  in
  if v = neg_infinity then None else Some (int_of_float v)

(* The leader-lease threshold: the latest send time T such that the
   leader and every peer that acknowledged a send stamped at or after T
   form a data quorum.  Stamps are (local, global) pairs of one send
   event; candidates are [now] and every peer's acknowledged stamp, and
   quorum selection reads the local halves only.  The leader counts at
   every candidate, so its own ack is the newest candidate and the
   threshold is the quorum's order statistic — itself a candidate.
   Among candidates sharing its local stamp, the latest global stamp
   wins.  [stamp id] is a peer's local stamp ([neg_infinity] when it has
   acknowledged nothing); [iter_stamps f] calls [f local global] for
   every peer. *)
let lease_threshold mode config ~leader_region ~self ~now ~now_global ~stamp ~iter_stamps
    =
  let newest = ref now in
  iter_stamps (fun local _ -> newest := Float.max !newest local);
  let newest = !newest in
  let threshold =
    data_quorum_value mode config ~leader_region ~ack:(fun m ->
        if m.Types.id = self then newest else stamp m.Types.id)
  in
  if threshold = neg_infinity then None
  else begin
    let global = ref (if now = threshold then now_global else neg_infinity) in
    iter_stamps (fun local g -> if local = threshold then global := Float.max !global g);
    Some (threshold, !global)
  end

(* The regions in which a candidate must obtain an in-region majority for
   its election to intersect all possible past data quorums.  [None]
   means the rule is not region-based (plain majority).

   Two kinds of knowledge feed the intersection requirement:
   - [last_leader]: the authoritative last known leader (term, region),
     learned from AppendEntries or from having been that leader — its
     region may hold committed data;
   - [vote_constraint]: the FlexiRaft voting history — the highest-term
     candidate this node (or any responding voter) has *granted a vote*
     to.  Such a candidate MAY have won, so when its term is newer than
     the authoritative leader's, its region must be intersected too.

   With no authoritative leader at all the requirement stays pessimistic
   (a majority in every region): a mere granted vote can never *relax*
   the requirement, only extend it — this keeps concurrent bootstrap
   candidacies in different regions from both winning. *)
let required_election_regions mode config ~candidate_region ~last_leader ~vote_constraint =
  match mode with
  | Majority -> None
  | Region_majorities -> None
  | Single_region_dynamic ->
    let all = Types.regions_with_voters config in
    (match last_leader with
    | Some (leader_term, leader_region) when List.mem leader_region all ->
      let extra =
        match vote_constraint with
        | Some (vote_term, vote_region)
          when vote_term > leader_term && List.mem vote_region all ->
          [ vote_region ]
        | _ -> []
      in
      Some (List.sort_uniq compare (candidate_region :: leader_region :: extra))
    | Some _ | None -> Some all (* pessimistic: majority everywhere *))

let election_quorum_satisfied mode config ~candidate_region ~last_leader ~vote_constraint
    ~votes =
  match mode with
  | Majority -> majority_satisfied (Types.voters config) votes
  | Region_majorities -> majority_of_region_majorities config votes
  | Single_region_dynamic ->
    (match
       required_election_regions mode config ~candidate_region ~last_leader
         ~vote_constraint
     with
    | Some regions -> List.for_all (fun r -> region_majority config ~region:r votes) regions
    | None -> assert false)

(* Smallest number of voters whose acknowledgement can commit an entry:
   reported by the latency evaluation to explain the quorum each mode
   waits for. *)
let min_data_quorum_size mode config ~leader_region =
  match mode with
  | Majority -> majority_of (List.length (Types.voters config))
  | Single_region_dynamic ->
    majority_of (List.length (Types.voters_in_region config leader_region))
  | Region_majorities ->
    let regions = Types.regions_with_voters config in
    let sizes =
      List.map
        (fun r -> majority_of (List.length (Types.voters_in_region config r)))
        regions
    in
    let sorted = List.sort compare sizes in
    let needed = majority_of (List.length regions) in
    List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < needed) sorted)
