(** Server-unavailability events (paper §2.5, Fig. 5).

    An event makes every server under its scope unavailable for a period.
    Scopes mirror the fault domains RAS reasons about: a single server (the
    paper's "random failures", including ToR-switch losses which we fold
    into rack scope), a rack, or a whole MSB (the largest correlated-failure
    and planned-maintenance granularity). *)

type scope = Server of int | Rack of int | Msb of int

type kind =
  | Planned_maintenance  (** infrastructure-controlled; replacement capacity
                             is pre-baked into reservations, §3.3.1 *)
  | Unplanned_sw  (** software events: short, frequent *)
  | Unplanned_hw  (** hardware repairs: rare, last weeks *)
  | Correlated  (** power/network/cooling domain loss, up to a full MSB *)

type t = {
  id : int;
  scope : scope;
  kind : kind;
  start_h : float;  (** hours since scenario start *)
  duration_h : float;
}

val end_h : t -> float

val active_at : t -> float -> bool

val servers_of : Ras_topology.Region.t -> t -> int list
(** Ids of all servers the event covers. *)
