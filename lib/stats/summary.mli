(** Descriptive statistics over samples: means, percentiles and
    fixed-width histograms.  Used by every benchmark to report the same
    aggregates the paper plots (mean / p95 / p99, distributions). *)

type t
(** An online accumulator of float samples.  Samples are retained so exact
    percentiles can be computed. *)

val create : unit -> t

val add : t -> float -> unit

val add_list : t -> float list -> unit

val count : t -> int

val mean : t -> float
(** Mean of the samples; [nan] when empty. *)

val min_value : t -> float
(** Smallest sample; [nan] when empty. *)

val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in \[0, 100\] with linear interpolation between
    order statistics; [nan] when empty.  Raises [Invalid_argument] for [p]
    outside the range. *)

type histogram = { lo : float; hi : float; counts : int array }
(** Equal-width bins over \[lo, hi); samples outside are clamped to the
    extreme bins. *)

val histogram : t -> bins:int -> histogram
(** Raises [Invalid_argument] if [bins <= 0] or the accumulator is empty. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering: count, mean, p50/p95/p99, min/max. *)
