(** In-reservation container allocator (the "Twine Allocator & Scheduler" box
    of Fig. 6).

    Works exclusively within a single reservation (§5.4 "rigid capacity
    boundaries"): candidate servers are those whose broker [current] owner is
    the reservation and which are healthy.  Placement is capacity-based
    stacking — a server hosts containers up to its RRU value for the
    reservation's service — with optional MSB spread so a job survives a
    correlated failure.

    The allocator reacts to broker unavailability events ({!on_event}) by
    re-placing the containers of a failed server onto remaining capacity
    (the buffer servers RAS embedded into the reservation).  It does not
    subscribe itself: its owner forwards the events ({!Ras.System} does so
    for the allocators in its table), so an allocator that is dropped stops
    hearing them. *)

type t

type failure_stats = { replaced : int; stranded : int }
(** Containers successfully re-placed vs. left pending after unavailability
    (stranded containers are retried on the next placement call). *)

val create :
  Ras_broker.Broker.t ->
  reservation:int ->
  rru_of:(Ras_topology.Hardware.t -> float) ->
  t

val on_event : t -> Ras_broker.Broker.event -> unit
(** Handle one broker unavailability event: a failed server of the
    reservation has its containers evicted and re-placed; a recovery retries
    the pending containers.  Subscribe it with
    [Broker.subscribe broker (Allocator.on_event alloc)]. *)

val place_job : t -> Job.t -> (unit, string) result
(** Place all replicas.  Fails (placing nothing) when the reservation lacks
    capacity; the error names the shortfall.  Raises [Invalid_argument] if
    the job references a different reservation. *)

val placed_containers : t -> int

val pending_containers : t -> int
(** Containers displaced by failures and not yet re-placed. *)

val retry_pending : t -> failure_stats
(** Attempt to place pending containers (called after replacement capacity
    arrives). *)

val evict_server : t -> int -> unit
(** Preempt every container on the server (they become pending).  The Online
    Mover calls this before moving an in-use server to another owner. *)

val used_rru : t -> float

val servers_in_use : t -> int list
