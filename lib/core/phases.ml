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
  rows : int;
  setup_bytes : int;
  lp_duals : float array;
  compiled : Model.std;
}

let now () = Unix.gettimeofday ()

let run ?params ?(mip_time_limit = 60.0) ?(mip_node_limit = 2000)
    ?(mip_gap_rel = Branch_bound.default_options.Branch_bound.gap_rel)
    ?(mip_stall_nodes = 0) ?(rack_level = false) ?include_server
    snapshot reservations =
  let words_before = Gc.allocated_bytes () in
  let t0 = now () in
  let symmetry = Symmetry.build ~rack_level ?include_server snapshot in
  let formulation = Formulation.build ?params ~rack_level symmetry reservations in
  let t1 = now () in
  let std = Model.compile formulation.Formulation.model in
  let t2 = now () in
  let words_after = Gc.allocated_bytes () in
  let status_quo = Formulation.status_quo formulation in
  let lp = Simplex.solve std in
  (* Primal heuristic: round the LP relaxation into a feasible integral
     solution; keep whichever of it and the status quo is cheaper. *)
  let objective_of x =
    let acc = ref std.Model.obj_offset in
    for j = 0 to std.Model.nvars - 1 do
      acc := !acc +. (std.Model.obj.(j) *. x.(j))
    done;
    !acc
  in
  let initial =
    match lp with
    | Simplex.Optimal { x; _ } ->
      let repaired = Formulation.repair formulation (Formulation.round_lp formulation x) in
      if objective_of repaired <= objective_of status_quo then repaired else status_quo
    | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ -> status_quo
  in
  let t3 = now () in
  let lp_bound = match lp with Simplex.Optimal { obj; _ } -> obj | _ -> neg_infinity in
  let outcome =
    if mip_node_limit <= 0 then begin
      (* heuristic-only mode for long simulations: the LP-guided rounding /
         repair / spread pipeline is the solution, with the LP relaxation as
         the proven bound *)
      let best_bound = lp_bound in
      let objective = objective_of initial in
      {
        Branch_bound.status = Branch_bound.Feasible;
        solution = Some initial;
        objective;
        best_bound;
        gap = objective -. best_bound;
        nodes = 0;
        lp_iterations = 0;
        warm_started_nodes = 0;
        dual_restarted_nodes = 0;
        dual_pivots = 0;
        bound_flips = 0;
        bland_pivots = 0;
        seed = Branch_bound.Seed_none;
        elapsed = 0.0;
      }
    end
    else begin
      let options =
        {
          Branch_bound.default_options with
          Branch_bound.time_limit = mip_time_limit;
          node_limit = mip_node_limit;
          gap_rel = mip_gap_rel;
          stall_node_limit = mip_stall_nodes;
          initial = Some initial;
          (* hand the root LP's optimal basis to the root node: the tree
             search re-optimizes it under the integer-tightened bounds via
             the dual phase instead of re-solving the root from scratch *)
          root_basis =
            (match lp with Simplex.Optimal { basis; _ } -> Some basis | _ -> None);
        }
      in
      Branch_bound.solve ~options std
    end
  in
  let t4 = now () in
  let solution =
    match outcome.Branch_bound.solution with Some x -> x | None -> initial
  in
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
    grouped_vars = Symmetry.grouped_variable_count symmetry ~reservations;
    raw_vars = Symmetry.raw_variable_count symmetry ~reservations;
    rows = std.Model.nrows;
    setup_bytes = int_of_float (words_after -. words_before);
    lp_duals = (match lp with Simplex.Optimal { duals; _ } -> duals | _ -> [||]);
    compiled = std;
  }
