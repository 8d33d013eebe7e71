(** Server power model (paper §4.4, Fig. 14).

    Power is a limiting resource per MSB; RAS's spread objectives double as
    power balancing.  Draw is modeled as a fraction of the hardware's
    nameplate watts depending on how the server is used. *)

type usage = Idle_free | Assigned_idle | Assigned_busy

val msb_power :
  Ras_topology.Region.t -> usage_of:(Ras_topology.Region.server -> usage) -> float array
(** Total draw per MSB given a usage classifier.  Free idle servers draw
    ~30% of nameplate, assigned-but-idle ~55%, busy ~88%. *)

val normalized_variance : float array -> float
(** Variance of the values normalized by the square of their mean —
    dimensionless imbalance measure, the y-axis of Fig. 14 (0 = perfectly
    uniform).  [nan] on empty or all-zero input. *)

val headroom : capacity_watts:float array -> draw_watts:float array -> float
(** Minimum relative headroom over MSBs: [min_i (cap_i - draw_i) / cap_i].
    The paper reports RAS lifting the most-loaded MSB's headroom from ~0 to
    11%. *)
