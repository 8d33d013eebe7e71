(** Health Check Service (Fig. 6): replays an unavailability schedule into
    the broker as simulation time advances.

    A server may be covered by several overlapping events; the broker is
    shown the most severe active one (correlated > hardware > software >
    planned) and marked up only when the last event covering it ends. *)

type t

val install :
  Ras_sim.Engine.t -> Ras_broker.Broker.t -> Ras_failures.Unavail.t list -> t
(** Schedules down/up transitions for every event.  Events whose servers do
    not exist (e.g. from a schedule generated before a region extension) are
    ignored. *)
