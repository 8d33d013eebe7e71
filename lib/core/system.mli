(** End-to-end RAS system: broker + health + Async Solver + Online Mover +
    per-reservation Twine allocators, driven by a discrete-event engine.

    This is the harness every simulation figure runs on.  It implements the
    resource-management flow of Fig. 6: capacity requests arrive, the solver
    re-evaluates bindings on a fixed period (hourly in production), the
    mover executes plans and failure replacements, container jobs fill
    reservations so that movement costs and churn are realistic, and metric
    time series are sampled every simulated hour. *)

type config = {
  solve_period_h : float;
  solver : Async_solver.params;
  shared_buffer_fraction : float;  (** 2% in production (§3.3.1) *)
  elastic_id : int option;  (** lend idle buffer servers to this elastic id *)
  job_fill_fraction : float;
      (** fraction of each reservation's requested RRUs filled with 1-RRU
          containers after each solve (0 disables container simulation) *)
  metrics_period_h : float;
}

val default_config : config
(** Hourly solves, 2% shared buffer, elastic lending on (id 9000), 80% job
    fill, hourly metrics. *)

type t

val create : ?config:config -> Ras_broker.Broker.t -> t
(** Builds shared-buffer reservations for the broker's region and installs
    the mover.  Does not schedule anything yet; see {!start}. *)

val engine : t -> Ras_sim.Engine.t
val broker : t -> Ras_broker.Broker.t
val metrics : t -> Ras_sim.Metrics.t
val mover : t -> Online_mover.t
val reactive : t -> Reactive.t
(** The mover's tier-1 reactive index ({!Online_mover.reactive}); each
    {!solve_now} refreshes its dual-price table. *)

val reservations : t -> Reservation.t list

val add_request : t -> Ras_workload.Capacity_request.t -> unit
(** Register a capacity request; it is fulfilled by the next solve. *)

val resize_request : t -> Ras_workload.Capacity_request.t -> unit
(** Replace the stored request with the same id (a capacity resize from the
    portal): the reservation keeps its identity and servers; the next solve
    adjusts the binding.  Unknown ids are ignored. *)

val remove_reservation : t -> int -> unit
(** Delete a reservation; its servers return to the free pool. *)

val install_failures : t -> Ras_failures.Unavail.t list -> unit

val start : t -> unit
(** Schedule the recurring solve and metric sampling (first solve at t=0). *)

val run : t -> until_h:float -> unit

val solve_now : t -> Async_solver.stats
(** One synchronous solve + plan application (also used by {!start}'s
    recurring event). *)

val snapshot : t -> Snapshot.t
(** Current state, with elastic loans resolved to home owners. *)

val solve_count : t -> int
(** Solves so far. *)

val last_solve : t -> Async_solver.stats option
(** The latest solve's statistics.  Only the latest is kept: each record
    pins its round's formulation, symmetry and snapshot. *)

val allocator : t -> int -> Ras_twine.Allocator.t option

(** Metric series names recorded every [metrics_period_h]:
    ["max_msb_share"] (capacity-weighted, Fig. 12), ["power_variance"]
    (Fig. 14), ["power_headroom"], ["moves_in_use"] / ["moves_unused"]
    (per-hour counts, Fig. 16), ["cross_dc:<name>"] for reservations with
    affinity (Fig. 15), ["unavailable_frac"], ["free_servers"],
    ["loans_outstanding"]. *)
