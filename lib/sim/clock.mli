(** Per-node clock: the engine's true time seen through a local
    oscillator with injectable rate drift and step faults.

    [now] is the node's wall reading (affected by rate and steps).
    [schedule] arms a countdown in local microseconds, converting to a
    true delay with the rate in effect at arm time: steps never move an
    armed timer, and rate changes only affect timers armed afterwards.
    A pristine clock (rate 1.0, never stepped) behaves identically to
    using the engine directly. *)

type t

val create : engine:Engine.t -> unit -> t

(** This node's wall reading, in local microseconds. *)
val now : t -> float

(** Inject rate drift from this instant; past readings are unchanged.
    Raises [Invalid_argument] when the rate is not positive. *)
val set_rate : t -> float -> unit

(** Jump the wall reading by [delta] local microseconds (either sign). *)
val step : t -> float -> unit

(** Snap back to true time at rate 1.0 (external resync after a fault);
    the snap itself is observable as a step. *)
val reset : t -> unit

val pristine : t -> bool

(** Arm a countdown of [delay] {e local} microseconds. *)
val schedule : t -> delay:float -> (unit -> unit) -> Engine.handle
