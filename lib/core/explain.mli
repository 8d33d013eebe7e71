(** Visibility into optimization decisions (paper §5.3, "Lessons Learned").

    Operating a capacity system at scale requires explaining {e why} a
    reservation received its particular hardware mix and spread, and giving
    actionable reasons when requests cannot be met.  These reports are used
    by the CLI and the examples. *)

val reservation_report : Snapshot.t -> Reservation.t -> string
(** Composition of the reservation's current binding: capacity vs. request,
    hardware-subtype breakdown, per-MSB spread against the alpha_F limit,
    per-datacenter split against any affinity, and embedded-buffer coverage
    (can it survive its fullest MSB?). *)

val shortfall_reason : Snapshot.t -> Reservation.t -> shortfall:float -> string
(** Actionable explanation of a capacity shortfall: how much acceptable
    hardware exists region-wide, how much is already claimed, and which
    acceptability constraint (category/generation) is binding. *)

val solve_report : Async_solver.stats -> string
(** Timing breakdown per phase, model sizes, what stopped each phase's
    branch-and-bound (status, node count, objective, bound and gap), the
    root LPs' pivots next to branch-and-bound's, the phase-1 gap in
    preemption units, move counts and remaining softened violations. *)

val shadow_prices : ?top:int -> Phases.result -> (string * float) list
(** The most expensive binding constraints of the phase's root LP: row name
    and shadow price, sorted by absolute price, at most [top] (default 10).
    A large price on a capacity row means the reservation is supply-
    constrained; on a supply row it identifies contended hardware — the
    "why did I get this composition" answer of §5.3. *)
