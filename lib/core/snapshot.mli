(** Solver input: an immutable view of broker state plus the reservation
    set, taken at the start of a solve (Fig. 6 step 2).

    Servers that are down with an {e unplanned} event are excluded from the
    assignable pool (the availability constraint, §3.5.1); servers under
    planned maintenance remain assignable because their replacement capacity
    is pre-baked into reservations.

    Server state is stored columnar — one int or byte column per field,
    indexed by server id — and the columns are the broker's own, frozen
    by {!Ras_broker.Broker.freeze}: capture is O(1) in the number of
    servers, and the broker copies them on its next write, so a snapshot
    never changes once taken.  It is read one way, through the
    [*_at]/[*_code] accessors (each raises [Invalid_argument] on an
    unknown server id) or the columns below, which callers must not
    write. *)

type t = {
  region : Ras_topology.Region.t;
  current : int array;
      (** {!Ras_broker.Broker.owner_code} of the current owner per server
          id, as the broker holds it: read it through {!current_code},
          which resolves elastic lending *)
  in_use : Bytes.t;  (** 0 / 1 per server id *)
  down : Bytes.t;  (** the broker's unavailability byte per server id; see {!usable_at} *)
  attr : int array option;
      (** generic placement attribute per server id ([None] = 0 everywhere):
          extra server state the formulation prices, e.g. the SSD wear
          bucket of §5.2.  It is part of the symmetry key, so non-zero
          attributes deliberately break server symmetry — exactly the cost
          the paper warns new placement goals carry *)
  usable_by_hw : int array;  (** see {!usable_hw_histogram} *)
  reservations : Reservation.t list;
}

val take : ?attr_of:(int -> int) -> Ras_broker.Broker.t -> Reservation.t list -> t
(** [attr_of id] supplies the placement attribute (defaults to 0
    everywhere, with no column).  Without it, capture does no per-server
    work: it freezes the broker's columns and copies its per-subtype
    counts. *)

val covers : t -> int -> bool
(** A solve's scope: [covers t id] when server [id] is usable and its home
    owner ({!current_code}) is [Free] or a reservation of [t.reservations]
    (a buffer reservation holds [Shared_buffer]).  [covers t] reads
    [t.reservations] when applied, O(reservations), so a
    [{ t with reservations }] copy has its own scope; each query is O(1). *)

val num_servers : t -> int

val server : t -> int -> Ras_topology.Region.server

val current_code : t -> int -> int
(** The server's owner code, with elastic lending resolved to its home:
    an [Elastic _] code reads as [Shared_buffer], because
    {!Online_mover.lend_idle}, the only writer of [Elastic] owners, lends
    from the shared buffer. *)

val current : t -> int -> Ras_broker.Broker.owner

val in_use_at : t -> int -> bool

val usable_at : t -> int -> bool
(** Healthy or under planned maintenance ({!Ras_broker.Broker.available_at}
    as of the snapshot). *)

val attr_at : t -> int -> int

val usable_hw_histogram : t -> int array
(** Usable-server count per hardware-catalog index (length
    {!Ras_topology.Hardware.count}): the broker's counts as of the
    snapshot, so admission checks fold supply over |catalog| entries
    instead of 10⁶ servers.  Callers must not write the array. *)

val usable_by_msb_hw : t -> Reservation.t -> int array array
(** Usable servers of the reservation per MSB and hardware-catalog index,
    in one pass over the servers.  Buffer reservations own
    [Shared_buffer] servers of their hardware category. *)

val rru_of_counts : Reservation.t -> int array array -> float array
(** Per-MSB RRU of {!usable_by_msb_hw}'s counts, at the reservation's
    [rru_of] per subtype. *)

val current_rru : t -> Reservation.t -> float
(** Usable RRU currently bound to the reservation: the sum of
    {!rru_by_msb}. *)

val rru_by_msb : t -> Reservation.t -> float array
(** Usable RRU of the reservation per MSB: {!rru_of_counts} of
    {!usable_by_msb_hw}. *)

val rru_by_dc : t -> Reservation.t -> float array
(** {!rru_by_msb} added up per datacenter through [region.msb_dc]. *)

val max_msb_share : t -> Reservation.t -> float
(** Largest per-MSB fraction of the reservation's current capacity — the
    quantity Fig. 12 tracks; [nan] when the reservation holds nothing. *)
