(** Discrete-event simulation engine.

    Time is in hours of region time.  Callbacks scheduled at a time run in
    schedule order; a callback may schedule further events (including at the
    current time).  The engine never moves backwards. *)

type t

val create : unit -> t

val now : t -> float

val schedule : t -> at:float -> (t -> unit) -> unit
(** Raises [Invalid_argument] when [at] is in the past. *)

val schedule_every : t -> first:float -> period:float -> (t -> unit) -> unit
(** Recurring event; the callback re-arms itself until {!cancel_recurring}
    conditions: recurrence stops when the callback raises [Stop_recurring]. *)

exception Stop_recurring

val run_until : t -> float -> unit
(** Process all events with time <= the horizon, advancing [now] to the
    horizon. *)
