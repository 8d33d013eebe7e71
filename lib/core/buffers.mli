(** Failure-buffer sizing (paper §3.3).

    Random failures are covered by a {e shared} buffer — one special
    reservation per hardware category, sized from the long-term failure
    forecast (2% of region capacity in production).  Correlated failures are
    covered by {e embedded} buffers: every reservation holds enough extra
    capacity to survive the loss of its fullest MSB, which the solver
    minimizes by spreading (expression 4).

    This module sizes the shared buffers and computes the paper's embedded
    buffer reference points: the achieved buffer fraction, the
    hardware-aware lower bound (4.06% in the paper's 36-MSB region), and the
    perfect-spread bound (100/36 = 2.8%). *)

val shared_buffer_reservations :
  Ras_topology.Region.t -> fraction:float -> Reservation.t list
(** One shared-buffer reservation per hardware category present in the
    region, each sized to [fraction] of that category's total base RRU.
    Categories with negligible capacity are skipped.  Ids count up from
    8000, in catalog category order. *)

val embedded_buffer_fraction : Snapshot.t -> float
(** Achieved embedded-buffer share: sum over guaranteed reservations of
    their fullest-MSB capacity, divided by total allocated capacity — the
    Fig. 12 y-axis ("machines % in max MSB", capacity-weighted). *)

val perfect_spread_bound : Ras_topology.Region.t -> float
(** [1 / num_msbs]: the bound if hardware were perfectly spread. *)

val hardware_aware_bound : Snapshot.t -> float
(** LP lower bound on the achievable embedded-buffer fraction of the
    snapshot's reservations given actual hardware placement: the continuous
    relaxation of the assignment problem with only the buffer objective (no
    stability costs).  This is the paper's "minimal required buffer
    capacity" (4.06%). *)
