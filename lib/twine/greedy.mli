(** The pre-RAS baseline: Twine's greedy server acquisition (paper §1.1).

    When capacity is needed, a free server is greedily acquired from the
    shared region free pool — the first acceptable server in pool order,
    with no regard for fault-domain spread, hardware mixture balance or
    correlated-failure buffers.  Because the free pool is laid out
    rack-by-rack, consecutive grabs cluster in whichever MSBs happen to hold
    free capacity; the paper measured services concentrating up to 15.1% of
    their servers in a single MSB under this policy (Fig. 12's starting
    point).

    This module is the comparison baseline for Figs. 12 and 14. *)

val fulfill :
  Ras_broker.Broker.t ->
  Ras_workload.Capacity_request.t list ->
  (int * float) list
(** Greedily bind free servers to each request (in request order) until the
    requested RRUs are covered, setting broker [current] and [target] to the
    request's reservation.  Returns per-request [(reservation id, shortfall
    rru)] — shortfall 0 when fully satisfied. *)
