(** The Async Solver (Fig. 6, paper §3.5): a full region solve, run off the
    critical path under a time budget, producing a server-to-reservation
    binding plan.

    Two-phase solving (§3.5.2): phase 1 optimizes the whole region at MSB
    granularity (no rack goals, coarser symmetry classes); phase 2 re-solves
    with rack goals for the worst ~10% of reservations by rack objective —
    capped so the grouped assignment-variable estimate stays under 6,000 —
    starting from the phase-1 result, with every other reservation's
    servers frozen.  A reservation's estimate is what it holds after phase
    1 plus the free servers ({!Concretize.held}), so with more than 6,000
    free servers phase 2 never runs and nothing is scored. *)

type params = Phases.params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;
  phase2_time_limit_s : float;
  node_limit : int;
  mip_gap_rel : float;
  mip_stall_nodes : int;
}
(** {!Phases.params}, re-exported: both phases run under it. *)

val default_params : params
(** {!Phases.default_params}. *)

type stats = {
  phase1 : Phases.result;
  phase2 : Phases.result option;  (** [None] when no rack goal needed fixing *)
  plan : Concretize.plan;  (** merged plan, moves relative to the snapshot *)
  duration_s : float;  (** whole-solve wall clock (the Fig. 7 quantity) *)
  shortfalls : (int * float) list;
      (** per-reservation softened capacity violations still present *)
  moves_in_use : int;
  moves_unused : int;
  gap_preemptions : float;
      (** remaining optimality gap expressed in in-use server preemption
          units (Fig. 9's x-axis is this cost scale) *)
  proven_constraints_fixed : bool;
      (** the bound proves no additional softened constraint could have been
          fixed by running longer: phase 1's gap is under the capacity-slack
          cost (Fig. 9: true for ~99% of solves).  Phase 1 stops searching
          as soon as this holds *)
  solver_nodes : int;  (** branch-and-bound nodes across both phases *)
  solver_lp_iterations : int;
      (** branch-and-bound node-LP pivots across both phases; the root LP
          each phase solves before the tree search is not counted *)
  solver_warm_starts : int;
      (** nodes whose LP restarted from a parent basis (see
          {!Ras_mip.Branch_bound}); the warm-start hit rate of this solve *)
  solver_dual_pivots : int;  (** dual-simplex pivots across both phases *)
}

val rack_overflows : Snapshot.t -> Concretize.move list -> float list
(** [rack_overflows snapshot moves]: per reservation of the snapshot, in
    list order, the RRU its rack-goal racks hold above [alpha_K * C_r]
    once the id-sorted [moves] are made, counting its usable servers; 0
    for a reservation without a rack goal.  Phase 2 refines the
    reservations this scores worst.  One pass over the servers covers
    every reservation. *)

val solve : ?params:params -> Snapshot.t -> stats
(** Phase 1 solves the snapshot's scope ({!Snapshot.covers}): its
    reservations, over the usable servers they and [Free] hold (loans read
    as their home, {!Snapshot.current_code}).  A server any other
    reservation holds is in no class, gets no target and never moves —
    how RAS is rolled out over a fleet whose other reservations stay
    under legacy management (Fig. 12's gradual enablement).  Inside
    {!System} every reservation is in the snapshot.  Phase 2 solves a
    snapshot with phase 1's moves made that holds the reservations it
    refines, so its scope is their servers and the free ones.

    Phase 1's root-LP duals ([phase1.lp_duals] on the class-supply rows
    [phase1.formulation.supply_rows]) cover the whole region at the
    (msb, hw) granularity of the tier-1 pools; {!System.solve_now} installs them
    with {!Reactive.set_prices}. *)
