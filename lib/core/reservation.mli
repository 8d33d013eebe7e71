(** Reservations: RAS's capacity abstraction (paper §1.2, §3.1).

    A reservation is a logical cluster — a set of servers dynamically
    assigned by the solver — that provides a guaranteed amount of capacity
    in relative resource units (RRUs).  Guaranteed reservations come from
    capacity requests; RAS additionally constructs one special reservation
    per hardware category for the shared random-failure buffer (§3.5.3
    "Shared random-failure buffer"). *)

type kind =
  | Guaranteed  (** a service's reservation, from a capacity request *)
  | Random_failure_buffer of Ras_topology.Hardware.category
      (** shared buffer pool: sized by failure forecasting, spread wide, no
          embedded buffer of its own *)

type t = {
  id : int;
  name : string;
  kind : kind;
  capacity_rru : float;  (** [C_r] *)
  rru_of : Ras_topology.Hardware.t -> float;  (** [V_{s,r}]; 0 = unacceptable *)
  msb_spread_limit : float;  (** [alpha_F] *)
  rack_spread_limit : float option;  (** [alpha_K] (phase-2 goal) *)
  dc_affinity : (int * float) list;  (** [A_{r,G}] *)
  affinity_tolerance : float;  (** [theta] *)
  embedded_buffer : bool;  (** enforce expression 6 *)
  hard_msb_cap : float option;
      (** storage quorum spread (§3.3.2): cap on any MSB's fraction of the
          reservation's total bound capacity *)
  io_intensity : float;
      (** §5.2 IO-aware placement: weight of the wear objective for this
          reservation (0 disables it) *)
}

val of_request : Ras_workload.Capacity_request.t -> t
(** Reservation ids reuse request ids; guaranteed reservations of storage
    and compute alike keep their request's placement policy. *)

val shared_buffer :
  id:int -> category:Ras_topology.Hardware.category -> capacity_rru:float -> t
(** The shared random-failure buffer for one hardware category.  Treated by
    the solver "just like a large, important service that cannot be
    downsized" (§5.3). *)

val is_buffer : t -> bool

val owner : t -> Ras_broker.Broker.owner
(** The broker owner of a server bound to this reservation:
    [Reservation id] for a guaranteed reservation, [Shared_buffer] for a
    random-failure buffer. *)

val accepts : t -> Ras_topology.Hardware.t -> bool
