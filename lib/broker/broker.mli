(** Resource Broker: the authoritative store of server state (paper §3.1-2).

    For every server the broker keeps the fields of Fig. 6's "Solve Input"
    table: the {e current} owner (who holds the server now), the {e target}
    owner (the binding intent written by the Async Solver), whether the
    server is lent out elastically, and its unavailability state.  The Online
    Mover subscribes to unavailability changes, and {!Ras.System} forwards
    them to its Twine allocators.

    The production broker is highly-available replicated storage; behaviour
    relevant to allocation is the data model and the subscription contract,
    which this in-memory version preserves.

    The store is columnar — one int or byte column per field, indexed by
    server id — so a region-scale broker (10⁶ servers) costs a few flat
    arrays rather than a million heap records.  State is read one way: the
    [*_at] / [*_code] accessors, which take a server id, check it, and
    never allocate (the server's location and hardware come from
    {!region}).  It is written through {!move}, {!set_target},
    {!mark_down}, {!mark_up} and {!set_in_use}.

    The broker is a versioned store: {!freeze} hands out the [current],
    [in_use] and [down] columns as an O(1) read-only view, and the first
    effective write after it copies those three columns once before
    writing (copy-on-write), so the view never changes.  Freezes with no
    write between them share one copy.  The [target] column is never
    frozen, so it is never copied.

    The broker also keeps the {e stale} set: the servers whose target
    differs from their current owner, an [Elastic] owner reading as its
    home, [Shared_buffer].  They are the planned moves a down server
    skipped and the targets written without a move; the Online Mover's
    apply step reads them instead of walking every server. *)

type owner =
  | Free  (** region free pool *)
  | Reservation of int  (** bound to a guaranteed reservation *)
  | Shared_buffer  (** the shared random-failure buffer (§3.3.1) *)
  | Elastic of int  (** buffer capacity lent to an elastic reservation (§3.4) *)

type t

type event = Went_down of int * Ras_failures.Unavail.kind | Came_up of int

val create : Ras_topology.Region.t -> t
(** All servers start [Free], healthy, targets equal to current. *)

val region : t -> Ras_topology.Region.t

val num_servers : t -> int

(** {2 Column accessors}

    Those that take a server id raise [Invalid_argument] on an unknown
    one. *)

val owner_code : owner -> int
(** Injective encoding of {!owner} as an immediate int ([Free] = 0). *)

val owner_of_code : int -> owner
(** Inverse of {!owner_code}. *)

val is_elastic_code : int -> bool
(** Whether the code is that of some [Elastic _] owner. *)

val current_code : t -> int -> int
(** [owner_code] of the server's current owner (who holds it now). *)

val target_code : t -> int -> int
(** [owner_code] of the server's target owner (the solver's binding intent). *)

val current_owner : t -> int -> owner

val in_use_at : t -> int -> bool
(** Has running containers (drives movement cost). *)

val available_at : t -> int -> bool
(** Healthy or under planned maintenance: planned events count as usable
    capacity for the solver (§3.5.1). *)

val healthy_at : t -> int -> bool
(** No active unavailability at all. *)

val available_byte : char -> bool
(** The availability rule of {!available_at}, applied to one byte of a
    frozen [down] column. *)

(** {2 Frozen views} *)

type frozen = private {
  current : int array;  (** owner codes per server id *)
  in_use : Bytes.t;  (** 0 / 1 per server id *)
  down : Bytes.t;  (** 0 = healthy, otherwise the server's active unavailability *)
  available_by_hw : int array;
      (** available servers ({!available_at}) per hardware-catalog index;
          a copy of the count the broker keeps *)
}
(** The columns as of one {!freeze}.  Readers must not write them: they
    are the broker's own arrays until its next effective write. *)

val freeze : t -> frozen
(** O(1) apart from the catalog-length count copy.  Marks the three
    columns shared: the next effective {!move}, {!mark_down}, {!mark_up}
    or {!set_in_use} copies them first.  {!extend_region} allocates new
    columns anyway. *)

val subscribe : t -> (event -> unit) -> unit
(** Callbacks run synchronously on {!mark_down}/{!mark_up}, in subscription
    order. *)

val subscribe_changes : t -> (int -> unit) -> unit
(** Low-level column-change feed: the callback receives the server id on
    every effective mutation of its columns ({!move}, {!mark_down},
    {!mark_up}, {!set_in_use}, and once per adopted server on
    {!extend_region}).  No-op writes (same owner, same state) do not fire.
    On {!mark_down}/{!mark_up} change callbacks run {e before} the
    {!subscribe} event callbacks, so an index maintained through this feed
    (e.g. {!Ras.Reactive}'s availability pools) is already consistent when
    event handlers run.  Callbacks must not mutate the broker for the same
    id re-entrantly. *)

val set_target : t -> int -> owner -> unit
(** Record binding intent (solver output step 3 in Fig. 6). *)

val stale_servers : t -> int list
(** The stale set, in no particular order: every server whose target
    owner differs from its current owner, an [Elastic _] current owner
    counting as [Shared_buffer].  O(writes since the last read), allocating
    only the list: every {!move} and {!set_target} logs its server, and
    this read keeps the stale ones. *)

val move : t -> int -> owner -> unit
(** Change [current] ownership (the Online Mover's capacity-binding step).
    Moving a server across owners preempts its containers: [in_use] resets
    to false unless the owner is unchanged. *)

val mark_down : t -> int -> Ras_failures.Unavail.kind -> unit
(** Idempotent for the same kind; a more severe event may overwrite. *)

val mark_up : t -> int -> unit

val set_in_use : t -> int -> bool -> unit

val extend_region : t -> Ras_topology.Region.t -> unit
(** Adopt an extended region (see {!Ras_topology.Generator.extend}): new
    servers are added as [Free] and healthy; existing records are
    untouched.  Raises
    [Invalid_argument] if the new region does not extend the old one. *)

val servers_with_owner : t -> owner -> int list

val count_owner : t -> owner -> int
