(** Fixed-width-bucket time series of event counts (commits per unit
    time) for the throughput panels (Figures 5b/5d). *)

type t

(** [bucket_width] in the same unit as recorded timestamps. *)
val create : bucket_width:float -> t

val record : t -> float -> unit

val total : t -> int

(** (bucket start time, count) rows covering the observed range with
    zero-filled gaps. *)
val series : t -> (float * int) list

val mean_rate_per_bucket : t -> float

(** Render two aligned series one character column per bucket,
    downsampling to [width]. *)
val render_pair : label_a:string -> t -> label_b:string -> t -> width:int -> string
