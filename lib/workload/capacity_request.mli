(** Capacity requests (paper §2.4): the unit of intent a service owner files
    through the Capacity Portal.  A request asks for an aggregate amount of
    RRUs, names the service whose RRU valuation applies, and carries the
    placement policy RAS must uphold (spread limits, datacenter affinity,
    whether an embedded correlated-failure buffer is required). *)

type t = {
  id : int;
  service : Service.t;
  rru : float;  (** requested guaranteed capacity, [C_r] in the MIP *)
  msb_spread_limit : float;
      (** [alpha_F]: max fraction of the reservation's capacity allowed in
          one MSB before the spread objective penalizes it *)
  rack_spread_limit : float option;  (** [alpha_K], enforced in phase 2 *)
  dc_affinity : (int * float) list;
      (** [A_{r,G}]: desired capacity fraction per datacenter (§3.5.3
          expression 7); empty = no affinity *)
  affinity_tolerance : float;  (** [theta] *)
  embedded_buffer : bool;
      (** when set, expression 6 guarantees capacity survives any single
          MSB failure *)
  hard_msb_cap : float option;
      (** storage-service quorum spread (paper §3.3.2): no MSB may hold more
          than this fraction of the reservation's {e total} capacity, so a
          replicated store keeps quorum (or an erasure-coded one bounds
          reconstruction) through an MSB loss.  For replication factor R and
          quorum Q use [(R - Q) / R], e.g. 1/3 for R=3, Q=2. *)
  io_intensity : float;
      (** write-heaviness in [0, 1] for the IO/wear-aware placement goal of
          §5.2: IO-heavy reservations should avoid servers with worn flash *)
  arrival_time : float;  (** hours since scenario start *)
}

val make :
  id:int ->
  service:Service.t ->
  rru:float ->
  ?msb_spread_limit:float ->
  ?rack_spread_limit:float ->
  ?dc_affinity:(int * float) list ->
  ?affinity_tolerance:float ->
  ?embedded_buffer:bool ->
  ?hard_msb_cap:float ->
  ?io_intensity:float ->
  ?arrival_time:float ->
  unit ->
  t
(** Defaults: [msb_spread_limit] 0.1, no rack limit, no affinity,
    [affinity_tolerance] 0.1, [embedded_buffer] true, no quorum cap,
    [arrival_time] 0.  Raises [Invalid_argument] unless [rru] is finite and
    positive. *)

val quorum_cap : replicas:int -> quorum:int -> float
(** [(replicas - quorum) / replicas]; raises [Invalid_argument] unless
    [0 < quorum <= replicas]. *)

val acceptable_hw_types : t -> int
(** Number of catalog hardware subtypes that can serve this request — the
    x-axis of Fig. 4. *)

val pp : Format.formatter -> t -> unit
