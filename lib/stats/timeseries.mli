(** Time-stamped metric series collected during simulation.  Every evaluation
    figure that plots a quantity over weeks or months of region time is backed
    by one of these. *)

type t

val create : name:string -> t

val record : t -> time:float -> float -> unit
(** Append an observation.  Times need not be distinct but must be
    non-decreasing; raises [Invalid_argument] otherwise. *)

val points : t -> (float * float) array
(** All (time, value) points in recording order. *)

val bucketize : t -> width:float -> f:(float array -> float) -> (float * float) array
(** [bucketize t ~width ~f] groups points into consecutive time buckets of
    [width] starting at the first point's time and reduces each non-empty
    bucket with [f] (e.g. mean, max).  Returns (bucket start, reduced value)
    pairs.  Used to produce the paper's "per 60-minute window" style plots. *)

val pp_table : ?max_rows:int -> Format.formatter -> t -> unit
(** Render as a two-column table, sub-sampling to at most [max_rows]
    (default 20). *)
