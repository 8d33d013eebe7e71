(** Solver input: an immutable view of broker state plus the reservation
    set, taken at the start of a solve (Fig. 6 step 2).

    Servers that are down with an {e unplanned} event are excluded from the
    assignable pool (the availability constraint, §3.5.1); servers under
    planned maintenance remain assignable because their replacement capacity
    is pre-baked into reservations.

    Server state is stored columnar — one int or byte column per field,
    indexed by server id — so a region-scale snapshot (10⁶ servers) costs a
    handful of flat arrays rather than a million per-server records.  It is
    read one way, through the [*_at]/[*_code] accessors (each raises
    [Invalid_argument] on an unknown server id) or the columns below. *)

type t = {
  region : Ras_topology.Region.t;
  current : int array;
      (** {!Ras_broker.Broker.owner_code} of the home owner per server id:
          elastic lending is resolved back to the lender before the
          snapshot is taken *)
  in_use : Bytes.t;  (** 0 / 1 per server id *)
  usable : Bytes.t;  (** 0 / 1 per server id *)
  attr : int array;
      (** generic placement attribute per server id (0 = none): extra server
          state the formulation prices, e.g. the SSD wear bucket of §5.2.
          It is part of the symmetry key, so non-zero attributes
          deliberately break server symmetry — exactly the cost the paper
          warns new placement goals carry *)
  reservations : Reservation.t list;
}

val take :
  ?home_of:(int -> Ras_broker.Broker.owner option) ->
  ?attr_of:(int -> int) ->
  Ras_broker.Broker.t ->
  Reservation.t list ->
  t
(** [home_of id] resolves an elastically-lent server to its home owner
    (provided by the Online Mover); defaults to no lending.  [attr_of id]
    supplies the placement attribute (defaults to 0 everywhere).  Capture
    reads the broker's columns directly: no per-server allocation. *)

val num_servers : t -> int

val server : t -> int -> Ras_topology.Region.server

val current_code : t -> int -> int

val current : t -> int -> Ras_broker.Broker.owner

val in_use_at : t -> int -> bool

val usable_at : t -> int -> bool

val attr_at : t -> int -> int

val usable_hw_histogram : t -> int array
(** Usable-server count per hardware-catalog index (length
    {!Ras_topology.Hardware.count}).  One integer pass over the columns;
    admission checks fold supply over this instead of evaluating a
    per-server RRU function 10⁶ times. *)

val owned_by_code : Reservation.t -> int -> Ras_topology.Hardware.t -> bool
(** [owned_by_code res code hw]: does owner-code [code] on a server of
    hardware [hw] place it in reservation [res]?  Buffer reservations own
    [Shared_buffer] servers of their hardware category. *)

val current_rru : t -> Reservation.t -> float
(** Usable RRU currently bound to the reservation. *)

val rru_by_msb : t -> Reservation.t -> float array
(** Usable RRU of the reservation per MSB. *)

val rru_by_dc : t -> Reservation.t -> float array

val max_msb_share : t -> Reservation.t -> float
(** Largest per-MSB fraction of the reservation's current capacity — the
    quantity Fig. 12 tracks; [nan] when the reservation holds nothing. *)
