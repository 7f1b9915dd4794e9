(** Discrete-event simulation engine.

    Virtual time is a float measured in {e microseconds} (the unit the
    paper reports commit latencies in).  The engine owns a single event
    queue; events scheduled for the same instant fire in scheduling
    order, keeping runs deterministic.  The queue holds live work only:
    a cancelled event releases its thunk at once and leaves the heap at
    the next rebuild, which runs once cancelled events outnumber live
    ones. *)

type t

type handle

(** Unit helpers: [us = 1.0], [ms = 1_000.0], [s = 1_000_000.0]. *)
val us : float

val ms : float

val s : float

val create : ?seed:int -> unit -> t

(** Current virtual time in microseconds. *)
val now : t -> float

(** The engine's root RNG; split it rather than drawing from it in
    component code. *)
val rng : t -> Rng.t

(** Number of events executed so far. *)
val executed_events : t -> int

(** [schedule t ~delay fn] runs [fn] after [delay] microseconds of
    virtual time.  Returns a handle usable with {!cancel}. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** Schedule at an absolute virtual time (clamped to now). *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** Cancel a queued event: it will not run, and it no longer counts
    in {!pending}.  A no-op on an event that already fired or was
    already cancelled. *)
val cancel : handle -> unit

(** Execute due events until virtual time reaches [limit]; time is left
    at [limit] so consecutive calls compose. *)
val run_until : t -> float -> unit

(** [run_for t d] is [run_until t (now t +. d)]. *)
val run_for : t -> float -> unit

(** Live events: scheduled, not yet fired and not cancelled. *)
val pending : t -> int
