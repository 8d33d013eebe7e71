(** The Online Mover (Fig. 6): executes solver plans, provides replacement
    servers within a minute of unplanned failures, and runs the two
    efficiency optimizations of §3.2 — shared buffers and opportunistic
    (elastic) capacity.

    Elastic lending (§3.4) is an overlay: a lent server's broker owner
    becomes [Elastic id] and its home is the shared buffer; the Async
    Solver sees lent servers at their home owner ({!Snapshot.current_code}
    resolves [Elastic] codes on read, the rule {!home_of} states), so loans
    never perturb the optimization.  Whenever failure handling needs buffer
    capacity, loans are revoked.

    Every tier-1 decision (replacement search, donor pick, revocation) reads
    the mover's {!Reactive} index; there is no scan fallback and no separate
    loan table.

    A solver plan is its moves ({!Concretize}).  Carrying it out writes
    the moves' targets and resets the broker's stale set
    ({!Ras_broker.Broker.stale_servers}): a covered server whose recorded
    target is not its owner, such as a planned move its server was down
    for, gets its owner back as target.  No step walks every server. *)

type t

type apply_stats = {
  moved_in_use : int;  (** moves that preempted running containers *)
  moved_unused : int;
  skipped_unavailable : int;  (** planned moves whose server was down *)
  target_writes : int;  (** {!Ras_broker.Broker.set_target} calls the apply made *)
}

val create : ?engine:Ras_sim.Engine.t -> Ras_broker.Broker.t -> t
(** Builds a {!Reactive} index over the broker and subscribes to broker
    unavailability events.  With an engine, failure replacements are
    scheduled one simulated minute after the failure (the paper's
    replacement SLO); without one they happen synchronously. *)

val reactive : t -> Reactive.t
(** The tier-1 index every decision of the mover reads. *)

val find_replacement : t -> Reservation.t -> failed_hw:int -> int option
(** The replacement a failure of hardware-subtype [failed_hw] inside the
    reservation would pick right now (no state change):
    {!Reactive.find_replacement}.  Same subtype before other subtypes;
    within a subtype a healthy idle shared-buffer server, then a healthy
    idle loan, then a loan running opportunistic containers. *)

val set_reservations : t -> Reservation.t list -> unit
(** The mover needs reservation specs to pick acceptable replacements. *)

val on_preempt : t -> (int -> unit) -> unit
(** Called with the server id before an in-use server changes owner; the
    container allocator uses this to evict and re-queue containers. *)

val apply_plan : t -> Concretize.plan -> apply_stats
(** Execute the binding intent: write targets, then move every planned
    server.  The targets written are the moves' and, for every covered
    server in the broker's stale set ({!Ras_broker.Broker.stale_servers}),
    its current owner (a loan's home); no other server is visited, so the
    cost is O(moves + stale).  Unavailable servers keep the recorded target
    and are picked up by a later solve once they return.  The broker must
    hold the owners the plan's snapshot froze, as it does when the apply
    follows the solve: a server moved in between keeps the target its mover
    wrote unless the plan moves it. *)

val home_of : t -> int -> Ras_broker.Broker.owner option
(** The lending overlay read off the broker: [Some Shared_buffer] for
    every [Elastic]-owned server, [None] otherwise.  O(1).  Snapshots apply
    the same rule in {!Snapshot.current_code}. *)

val lend_idle : t -> elastic_id:int -> max_servers:int -> int
(** Lend healthy, idle shared-buffer servers to an elastic reservation,
    cheapest-priced buckets first; returns how many were lent.  The only
    writer of [Elastic] owners. *)

val revoke : t -> elastic_id:int -> int
(** Return every loan of the elastic reservation to the shared buffer,
    preempting its containers.  O(loans + classes). *)

val loans_outstanding : t -> int
(** Servers currently on loan, healthy or not.  O(1). *)

val replacements_done : t -> int
(** Successful shared-buffer replacements since creation. *)

val replacements_failed : t -> int
(** Failures for which no acceptable buffer server (even after revoking
    loans) was available — §5.4's "random failures exceeding planned
    limits". *)
