(** Tier-1 reactive repair (ROADMAP "two-tiered online optimization";
    paper §3.3.1's "replacement within one minute" promise).

    Between tier-2 rounds of the Async Solver, events — server failures,
    urgent capacity grants, elastic revokes — must be answered immediately,
    and at region scale (10⁶ servers) answering them by scanning the broker
    is itself a bug: one full scan per event silently undoes the columnar
    refactor.  This module keeps an {e incrementally maintained} index of
    available capacity, bucketed by (MSB, hardware subtype) — the same
    scope as the phase-1 symmetry classes — and repairs the current
    assignment per event in O(classes), not O(servers):

    - the index subscribes to {!Ras_broker.Broker.subscribe_changes}, so
      every ownership / health / in-use mutation updates the affected
      bucket in O(1), no matter which code path performed it;
    - candidate buckets are scored with the dual prices the last tier-2
      solve already produced ({!set_prices}): the repair
      takes equivalent servers from the scope tier-2 valued least, which is
      what keeps the next round's objective drift small;
    - picking a server out of a bucket is O(1).

    Each bucket holds five pools: healthy idle [Free] servers, healthy idle
    [Shared_buffer] servers, and the servers on loan to an elastic
    reservation, split into healthy idle, healthy in use, and down.  Only
    {!Online_mover.lend_idle} writes [Elastic] owners, and it lends from the
    shared buffer, so every [Elastic] server is a loan whose home is the
    buffer: the index is the only loan table.

    This module is the only implementation of each tier-1 decision.  The
    full-scan oracles the differential tests compare it with live under
    [test/]. *)

type counters = {
  events : int;  (** tier-1 operations served (replacements + grants) *)
  visited_classes : int;  (** candidate buckets examined across events *)
  visited_servers : int;  (** candidate servers examined / taken *)
  index_updates : int;  (** broker change notifications absorbed *)
}

type grant = {
  requested_rru : float;
  granted_rru : float;
  servers : int list;
  took_from_buffer : int;
  visited : int;
      (** candidate servers examined while granting — the per-event cost
          the O(n)-scan regression tests pin *)
}

type t

val create : Ras_broker.Broker.t -> t
(** Builds the availability index in one pass over the broker columns and
    subscribes to its change feed; from then on the index tracks every
    mutation incrementally.  One instance per broker. *)

val set_prices :
  t -> supply_rows:(int * Symmetry.cls) list -> duals:float array -> unit
(** Install the dual prices of the latest tier-2 solve: a formulation's
    class-supply rows against its root-LP duals
    ({!Formulation.t.supply_rows} of phase 1's {!Phases.result.formulation}
    and {!Phases.result.lp_duals}, whose rows cover the whole region at
    bucket granularity).  Each (msb, hw) bucket is priced at the max |dual|
    over the supply rows of its classes, in_use / attr variants and rack
    classes folded in: the marginal value tier-2 put on one more server of
    that scope (0 = slack supply, cheap to take from).  Negligible duals
    and rows past the end of [duals] are skipped.  Empty [duals] (a root
    LP that did not reach optimality) keep the previous prices.  Without
    prices every bucket scores 0 and repair falls back to deterministic
    (same-subtype first, lowest bucket) choice.
    Prices are advisory: they only steer {e which} equivalent repair is
    picked, never whether a repair is valid. *)

val price : t -> msb:int -> hw:int -> float
(** The installed price of one bucket; 0 when no priced supply row covers
    it. *)

val num_buckets : t -> int
(** num_msbs x hardware-catalog size: the per-event visit bound. *)

val available_in_bucket :
  t ->
  source:[ `Free | `Buffer | `Lent_idle | `Lent_in_use | `Lent_down ] ->
  msb:int ->
  hw:int ->
  int
(** Current pool size of one bucket (test/oracle hook). *)

val find_replacement : t -> Reservation.t -> failed_hw:int -> int option
(** The server a failure of hardware subtype [failed_hw] inside the
    reservation should take: a healthy server the reservation can use,
    from the first non-empty preference class of same subtype before other
    subtypes, and within a subtype idle buffer, then idle loan, then loan
    in use.  Inside a class the cheapest-priced bucket wins.
    O(classes); does not move the server. *)

val take_idle_buffer : t -> max_servers:int -> int list
(** Up to [max_servers] healthy idle shared-buffer servers, cheapest
    buckets first (the elastic-lending donor pick).  Does not move them. *)

val grant : t -> reservation:Reservation.t -> rru:float -> allow_buffer:bool -> grant
(** The out-of-band emergency grant (paper §5.4, "capacity-request
    delays"): binds servers (current and target) directly to the
    reservation until [rru] is covered, without obeying every placement
    guarantee; the next solve repairs what it broke.  Free pool first,
    then, only with [allow_buffer], the shared buffer: the "dipping into
    buffers" §5.3 warns about, so callers must opt in.  Drains
    cheapest-priced buckets first.  O(classes + servers granted). *)

val loans_outstanding : t -> int
(** Servers currently owned by some [Elastic] reservation, healthy or not.
    O(1). *)

val lent_servers : t -> int list
(** Every server currently owned by some [Elastic] reservation, in no
    particular order.  O(loans + classes). *)

val counters : t -> counters
(** Cumulative counters since creation or the last {!reset_counters}. *)

val reset_counters : t -> unit
