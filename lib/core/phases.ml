module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex
module Branch_bound = Ras_mip.Branch_bound

type timing = {
  ras_build_s : float;
  solver_build_s : float;
  initial_state_s : float;
  mip_s : float;
}

let total_s t = t.ras_build_s +. t.solver_build_s +. t.initial_state_s +. t.mip_s

type result = {
  timing : timing;
  formulation : Formulation.t;
  outcome : Branch_bound.outcome;
  solution : float array;
  grouped_vars : int;
  raw_vars : int;
  setup_bytes : int;
  lp_duals : float array;
  root_lp_pivots : int;
  compiled : Model.std;
}

type params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;
  phase2_time_limit_s : float;
  node_limit : int;
  mip_gap_rel : float;
  mip_stall_nodes : int;
}

let default_params =
  {
    formulation = Formulation.default_params;
    phase1_time_limit_s = 10.0;
    phase2_time_limit_s = 5.0;
    node_limit = 300;
    mip_gap_rel = Branch_bound.default_options.Branch_bound.gap_rel;
    mip_stall_nodes = 0;
  }

let now () = Unix.gettimeofday ()

let search ~params ~rack_level formulation std =
  let status_quo = Formulation.status_quo formulation in
  (* the stability term anchors the optimum on the current assignment, so
     the root LP starts from a crash basis at the status quo *)
  let lp = Simplex.solve ~basis:(Simplex.crash std status_quo) std in
  (* Primal heuristic: round the LP relaxation into a feasible integral
     solution; keep whichever of it and the status quo is cheaper. *)
  let objective_of = Model.objective_value std in
  let initial =
    match lp with
    | Simplex.Optimal { x; _ } ->
      let repaired = Formulation.repair formulation (Formulation.round_lp formulation x) in
      if objective_of repaired <= objective_of status_quo then repaired else status_quo
    | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ -> status_quo
  in
  let options =
    {
      Branch_bound.time_limit =
        (if rack_level then params.phase2_time_limit_s else params.phase1_time_limit_s);
      node_limit = params.node_limit;
      gap_rel = params.mip_gap_rel;
      (* phase 1 stops once its incumbent is provably within one
         capacity-slack unit of the optimum: search past that cannot fix
         a softened capacity constraint (the paper's Fig. 9 bar).
         Phase 2 keeps the near-exact default and its node budget. *)
      gap_abs =
        (if rack_level then Branch_bound.default_options.Branch_bound.gap_abs
         else params.formulation.Formulation.capacity_slack_cost);
      stall_node_limit = params.mip_stall_nodes;
      initial = Some initial;
      (* hand the root LP's optimal basis to the root node: the tree
         search re-optimizes it under the integer-tightened bounds via
         the dual phase instead of re-solving the root from scratch *)
      root_basis = (match lp with Simplex.Optimal { basis; _ } -> Some basis | _ -> None);
    }
  in
  (lp, options)

let run ?(params = default_params) ?(rack_level = false) snapshot =
  let words_before = Gc.allocated_bytes () in
  let t0 = now () in
  let symmetry = Symmetry.build ~rack_level snapshot in
  let formulation = Formulation.build ~params:params.formulation ~rack_level symmetry in
  let t1 = now () in
  let std = Model.compile formulation.Formulation.model in
  let t2 = now () in
  let words_after = Gc.allocated_bytes () in
  let lp, options = search ~params ~rack_level formulation std in
  let t3 = now () in
  let outcome = Branch_bound.solve ~options std in
  (* a search that processed no node (heuristic-only mode, [node_limit =
     0]) leaves its root open and proves nothing; the root LP solved above
     still bounds the phase *)
  let outcome =
    if outcome.Branch_bound.nodes > 0 then outcome
    else
      let best_bound = match lp with Simplex.Optimal { obj; _ } -> obj | _ -> neg_infinity in
      { outcome with Branch_bound.best_bound; gap = outcome.Branch_bound.objective -. best_bound }
  in
  let t4 = now () in
  (* [search] always seeds the tree with the heuristic incumbent *)
  let initial = Option.get options.Branch_bound.initial in
  let solution = Option.value outcome.Branch_bound.solution ~default:initial in
  {
    timing =
      {
        ras_build_s = t1 -. t0;
        solver_build_s = t2 -. t1;
        initial_state_s = t3 -. t2;
        mip_s = t4 -. t3;
      };
    formulation;
    outcome;
    solution;
    grouped_vars = Symmetry.grouped_variable_count symmetry;
    raw_vars = Symmetry.raw_variable_count symmetry;
    setup_bytes = int_of_float (words_after -. words_before);
    lp_duals = (match lp with Simplex.Optimal { duals; _ } -> duals | _ -> [||]);
    root_lp_pivots = (match lp with Simplex.Optimal { iterations; _ } -> iterations | _ -> 0);
    compiled = std;
  }
