(** Pure membership planner: decompose an arbitrary target config into
    safe single steps for the logless reconfiguration machinery.

    Each planned step moves at most one voter and every intermediate
    config quorum-overlaps its predecessor; promotions are ordered
    before demotions so even a full voter-set swap passes through the
    union.  The planner never talks to the cluster — {!Healer} executes
    plans (catch-up waits, leadership transfers, re-planning after
    leader changes). *)

type step =
  | Add_learner of Raft.Types.member  (** join the ring as a non-voter *)
  | Promote of string  (** learner -> voter *)
  | Demote of string  (** voter -> learner *)
  | Remove of string  (** drop a learner from the ring *)

val describe_step : step -> string

(** A config a plan may legally target: at least one voter, unique
    non-empty ids, a region on every member. *)
val validate : Raft.Types.config -> (unit, string) result

(** Ordered steps from [current] to [target].  Errors: invalid target,
    or a retained id changing region/kind (that is a replacement under a
    new id, not a reconfiguration).  [Ok []] means the memberships
    already agree. *)
val plan :
  current:Raft.Types.config ->
  target:Raft.Types.config ->
  (step list, string) result

(** Apply one step to a config, checking its precondition (e.g. only
    learners may be removed). *)
val apply_step :
  Raft.Types.config -> step -> (Raft.Types.config, string) result

(** [cfg] with [dead] replaced in place by [by] at [dead]'s voter grade
    ([by]'s own [voter] flag is ignored).  If [by] is already a voter in
    [cfg] it stays one, so the target re-derived from a config
    mid-replacement is the same.  Error when [dead] is not a member. *)
val replace :
  Raft.Types.config ->
  dead:string ->
  by:Raft.Types.member ->
  (Raft.Types.config, string) result

val is_noop : current:Raft.Types.config -> target:Raft.Types.config -> bool
