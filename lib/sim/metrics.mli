(** Named metric registry: each metric is a {!Ras_stats.Timeseries.t} keyed
    by name.  Scenario code records into it; benchmark code reads the series
    out to print the paper's figures. *)

type t

val create : unit -> t

val record : t -> string -> time:float -> float -> unit

val find : t -> string -> Ras_stats.Timeseries.t option

val pp : Format.formatter -> t -> unit
(** Every series as a table, in name order. *)
