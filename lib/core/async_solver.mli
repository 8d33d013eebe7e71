(** The Async Solver (Fig. 6, paper §3.5): a full region solve, run off the
    critical path under a time budget, producing a server-to-reservation
    binding plan.

    Two-phase solving (§3.5.2): phase 1 optimizes the whole region at MSB
    granularity (no rack goals, coarser symmetry classes); phase 2 re-solves
    with rack goals for the worst ~10% of reservations by rack objective —
    capped so the grouped assignment-variable estimate stays under 6,000 —
    starting from the phase-1 result, with every other reservation's
    servers frozen. *)

type params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;
  phase2_time_limit_s : float;
  node_limit : int;  (** branch-and-bound nodes per phase *)
  mip_gap_rel : float;
      (** relative optimality gap for both phases' tree searches (forwarded
          to {!Phases.run}).  The default is near-exact; continuous-loop
          deployments may run at an interactive tolerance (e.g. [1e-3]) *)
  mip_stall_nodes : int;
      (** stop a phase's tree search once the incumbent has not improved
          for this many nodes (0 disables; forwarded to {!Phases.run}).
          This is the stopping rule that fires in practice: the allocation
          MIPs' soft-penalty integrality gap never closes, so a round ends
          either here or at [node_limit] *)
  run_phase2 : bool;
}

val default_params : params

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
          fixed by running longer (Fig. 9: true for ~99% of solves) *)
  solver_nodes : int;  (** branch-and-bound nodes across both phases *)
  solver_lp_iterations : int;  (** simplex pivots across both phases *)
  solver_warm_starts : int;
      (** nodes whose LP restarted from a parent basis (see
          {!Ras_mip.Branch_bound}); the warm-start hit rate of this solve *)
  solver_dual_restarts : int;
      (** warm-started nodes that re-optimized via the dual-simplex phase *)
  solver_dual_pivots : int;  (** dual-simplex pivots across both phases *)
  solver_bland_pivots : int;
      (** primal pivots taken under the Bland anti-cycling fallback across
          both phases — nonzero flags degenerate stalls in the node LPs *)
}

val solve :
  ?params:params ->
  ?include_server:(Snapshot.server_view -> bool) ->
  Snapshot.t ->
  stats
(** [include_server] restricts the assignable server pool (on top of the
    availability constraint); used to roll RAS out to a subset of the fleet
    while the rest stays under legacy management (Fig. 12's gradual
    enablement).

    Phase 1's root-LP duals ([phase1.lp_duals] against
    [phase1.compiled.row_names]) cover the whole region at the (msb, hw)
    granularity of the tier-1 pools; {!System.solve_now} installs them
    with {!Reactive.set_prices}. *)
