(** Priority queue of timed events for the discrete-event engine.

    Events at equal times pop in insertion order (a monotonic sequence
    number breaks ties), which keeps simulations deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)

val peek_time : 'a t -> float option
