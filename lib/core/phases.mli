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

type params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;  (** phase 1's ([rack_level = false]) wall clock *)
  phase2_time_limit_s : float;  (** phase 2's ([rack_level = true]) wall clock *)
  node_limit : int;
      (** branch-and-bound nodes per phase.  In practice this is phase 2's
          budget: phase 1 stops once its gap is under the capacity-slack
          cost, which after bring-up holds at its root node.  [0] is
          heuristic-only mode: the seed is the phase's solution and the
          root LP its bound *)
  mip_gap_rel : float;
      (** relative optimality gap of the tree search.  The default is
          near-exact; continuous-loop deployments may run at an
          interactive tolerance (e.g. [1e-3]) *)
  mip_stall_nodes : int;
      (** stop the tree search once the incumbent has not improved for
          this many nodes (0, the default, disables) *)
}

val default_params : params
(** The one set of solve limits: 10 s for phase 1, 5 s for phase 2, 300
    nodes, {!Ras_mip.Branch_bound.default_options}'s near-exact relative
    gap, no stall limit, {!Formulation.default_params}. *)

val search :
  params:params ->
  rack_level:bool ->
  Formulation.t ->
  Ras_mip.Model.std ->
  Ras_mip.Simplex.result * Ras_mip.Branch_bound.options
(** [search ~params ~rack_level formulation std] is the initial state of
    {!run}'s tree search on the compiled [formulation]: the root LP,
    started from a {!Ras_mip.Simplex.crash} basis at the status quo, and
    the {!Ras_mip.Branch_bound.options} {!run} solves [std] with — the
    phase's limits from [params], the heuristic incumbent and the root
    LP's basis.  The bench's phase-2 tree row replays a round's search
    from it. *)

val run : ?params:params -> ?rack_level:bool -> Snapshot.t -> result
(** One phase over the snapshot's scope: its reservations, over the
    servers {!Snapshot.covers} admits (those [Free] and the reservations
    hold).  [rack_level] picks the phase's time limit from [params];
    node, gap and stall limits are the phase-independent fields.  The tree
    search is {!Ras_mip.Branch_bound.solve}, seeded with the heuristic
    incumbent.  With [node_limit = 0] it processes no node: the outcome
    has [nodes = 0], the seed as its solution, and the root LP's objective
    as [best_bound] (the tree's own open root proves nothing).

    The absolute gap is not a parameter.  At MSB granularity
    ([rack_level = false], phase 1) it is the formulation's
    [capacity_slack_cost]: the search stops once its incumbent is
    provably within one capacity-slack unit of the optimum, which after
    bring-up is usually at the root node.  At rack granularity (phase 2)
    it is the near-exact default, and [node_limit] is the budget that
    ends the search. *)
