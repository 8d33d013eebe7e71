(** Stochastic unavailability schedule generator, parameterized with the
    paper's measured rates:

    - planned maintenance dominates capacity loss and proceeds at MSB
      granularity with at most 25% of one MSB's racks concurrently under
      maintenance (§3.3.1);
    - unplanned software events keep ~0.3% of servers down at a time with
      occasional multi-rack spikes above 3% (Fig. 5);
    - hardware repairs hold ~0.1% of the fleet for weeks (§2.5);
    - correlated failures take out most or all of an MSB roughly once a
      month per region (§2.5). *)

type params = {
  maintenance_cycle_days : float;
      (** every MSB receives one maintenance pass per cycle *)
  maintenance_hours : float;  (** duration of one 25%-of-MSB batch *)
  sw_events_per_server_day : float;
  sw_hours_mean : float;
  hw_events_per_server_day : float;
  hw_days_mean : float;
  correlated_per_month : float;
  correlated_hours_mean : float;
  sw_spike_per_month : float;  (** region-wide software pushes gone wrong *)
  sw_spike_fraction : float;  (** fraction of servers a spike takes down *)
}

val default_params : params

val calm_params : params
(** Failure-free except a light maintenance schedule; for tests that need a
    deterministic quiet background. *)

val generate :
  Ras_stats.Rng.t -> Ras_topology.Region.t -> params -> horizon_days:float -> Unavail.t list
(** Events sorted by start time, ids dense from 0. *)

val series :
  Ras_topology.Region.t ->
  Unavail.t list ->
  horizon_days:float ->
  window_h:float ->
  kinds:Unavail.kind list ->
  (float * float) array
(** Per window, its midpoint and the fraction of servers down then from
    events of the given kinds (a server under several events counts once)
    — the Fig. 5 curves. *)
