(** One solve phase, instrumented with the paper's time breakdown (Fig. 8):

    - {e RAS build}: symmetry grouping plus construction of RAS's objectives
      and constraints ({!Symmetry.build} + {!Formulation.build});
    - {e solver build}: translation to the solver's standard form
      ({!Ras_mip.Model.compile});
    - {e initial state}: seeding the incumbent with the current assignment
      and the initial LP relaxation solve, started from a {!Ras_mip.Simplex.crash}
      basis at that assignment;
    - {e MIP}: branch-and-bound, seeded with the cheaper of the rounded
      root LP and the status quo. *)

type timing = {
  ras_build_s : float;
  solver_build_s : float;
  initial_state_s : float;
  mip_s : float;
}

val total_s : timing -> float

type result = {
  timing : timing;
  formulation : Formulation.t;
  outcome : Ras_mip.Branch_bound.outcome;
  solution : float array;
      (** best incumbent; falls back to the status-quo encoding when the MIP
          found nothing better (softened constraints make it feasible) *)
  grouped_vars : int;  (** assignment variables after symmetry grouping *)
  raw_vars : int;  (** variables a per-server formulation would have *)
  setup_bytes : int;
      (** bytes allocated during build — the Fig. 11
          memory proxy *)
  lp_duals : float array;
      (** root-LP shadow prices, one per compiled row (empty when the root
          LP did not reach optimality); {!Explain.shadow_prices} turns them
          into per-constraint price reports *)
  root_lp_pivots : int;
      (** simplex pivots of the root LP as solved here, from the crash
          basis at the status quo (0 when it did not reach optimality) *)
  compiled : Ras_mip.Model.std;  (** the compiled model the solve ran on *)
}

val run :
  ?params:Formulation.params ->
  ?mip_time_limit:float ->
  ?mip_node_limit:int ->
  ?mip_gap_rel:float ->
  ?mip_stall_nodes:int ->
  ?rack_level:bool ->
  ?include_server:(int -> bool) ->
  Snapshot.t ->
  Reservation.t list ->
  result
(** [?mip_gap_rel] sets the branch-and-bound relative optimality gap
    (default {!Ras_mip.Branch_bound.default_options}'s near-exact 1e-9).
    The continuous loop may run at an interactive tolerance (e.g. 1e-3).
    [?mip_stall_nodes] forwards
    {!Ras_mip.Branch_bound.options.stall_node_limit} — stop once the
    incumbent has not improved for that many nodes (0, the default,
    disables).

    The absolute gap is not a parameter.  At MSB granularity
    ([rack_level = false], phase 1) it is the formulation's
    [capacity_slack_cost]: the search stops once its incumbent is
    provably within one capacity-slack unit of the optimum, which after
    bring-up is usually at the root node.  At rack granularity (phase 2)
    it is the near-exact default, and [mip_node_limit] is the budget that
    ends the search. *)
