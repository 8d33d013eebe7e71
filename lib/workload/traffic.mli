(** Cross-datacenter network traffic model (paper §4.5, Fig. 15).

    A service whose data lives in one datacenter generates traffic between
    its compute servers and that datacenter; compute placed in the data's
    datacenter keeps traffic local, compute placed elsewhere crosses the
    region's scarce inter-datacenter links.  The Fig. 15 metric is the
    percentage of a service's traffic that is cross-datacenter, which for
    this model equals the capacity share placed outside the data's
    datacenter. *)

val cross_dc_gb :
  service:Service.t -> data_dc:int -> capacity_per_dc:float array -> hours:float -> float
(** Absolute cross-datacenter volume over a period, using the service's
    traffic intensity: the capacity outside [data_dc] generates it; 0 when
    the total capacity is zero. *)

val cross_dc_working_fraction :
  data_dc:int -> capacity_per_dc:float array -> requested:float -> float
(** Cross-datacenter share of the {e working} capacity: embedded-buffer
    servers beyond the requested RRUs are idle and generate no traffic, so
    the working set is the requested amount served preferentially from the
    data's datacenter.  [1 - min(local, requested) / requested]; [nan] when
    [requested <= 0]. *)
