module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Branch_bound = Ras_mip.Branch_bound

type params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;
  phase2_time_limit_s : float;
  node_limit : int;
  mip_gap_rel : float;
  mip_stall_nodes : int;
  run_phase2 : bool;
}

let default_params =
  {
    formulation = Formulation.default_params;
    phase1_time_limit_s = 10.0;
    phase2_time_limit_s = 5.0;
    node_limit = 300;
    mip_gap_rel = Branch_bound.default_options.Branch_bound.gap_rel;
    mip_stall_nodes = 0;
    run_phase2 = true;
  }

(* Phase 2 refines the worst ~10% of reservations by rack objective
   (§3.5.2), while their grouped assignment-variable estimate stays under
   the cap. *)
let phase2_fraction = 0.1
let phase2_var_cap = 6000

type stats = {
  phase1 : Phases.result;
  phase2 : Phases.result option;
  plan : Concretize.plan;
  duration_s : float;
  shortfalls : (int * float) list;
  moves_in_use : int;
  moves_unused : int;
  gap_preemptions : float;
  proven_constraints_fixed : bool;
  solver_nodes : int;
  solver_lp_iterations : int;
  solver_warm_starts : int;
  solver_dual_restarts : int;
  solver_dual_pivots : int;
  solver_bland_pivots : int;
}

let owner_of_res res =
  match res.Reservation.kind with
  | Reservation.Guaranteed -> Broker.Reservation res.Reservation.id
  | Reservation.Random_failure_buffer _ -> Broker.Shared_buffer

(* Rack-spread overflow of a reservation under a target map — the phase-2
   selection criterion ("reservations with the worst rack-level objectives
   are prioritized", §3.5.2). *)
let rack_overflow (snapshot : Snapshot.t) targets res =
  match res.Reservation.rack_spread_limit with
  | None -> 0.0
  | Some alpha_k ->
    let owner = owner_of_res res in
    let per_rack = Hashtbl.create 32 in
    Hashtbl.iter
      (fun id target ->
        if target = owner then begin
          let s = Snapshot.server snapshot id in
          let rru = res.Reservation.rru_of s.Region.hw in
          if rru > 0.0 then begin
            let rack = s.Region.loc.Region.rack in
            let cur = try Hashtbl.find per_rack rack with Not_found -> 0.0 in
            Hashtbl.replace per_rack rack (cur +. rru)
          end
        end)
      targets;
    let limit = alpha_k *. res.Reservation.capacity_rru in
    Hashtbl.fold (fun _ v acc -> acc +. Float.max 0.0 (v -. limit)) per_rack 0.0

let with_targets (snapshot : Snapshot.t) targets =
  let current = Array.copy snapshot.Snapshot.current in
  let in_use = Bytes.copy snapshot.Snapshot.in_use in
  Hashtbl.iter
    (fun id owner ->
      let code = Broker.owner_code owner in
      if current.(id) <> code then begin
        (* a moved server is preempted: it arrives idle *)
        current.(id) <- code;
        Bytes.set in_use id '\000'
      end)
    targets;
  { snapshot with Snapshot.current; in_use }

let solve ?(params = default_params) ?include_server (snapshot : Snapshot.t) =
  let start = Unix.gettimeofday () in
  let reservations = snapshot.Snapshot.reservations in
  let phase1 =
    Phases.run ~params:params.formulation ~mip_time_limit:params.phase1_time_limit_s
      ~mip_node_limit:params.node_limit ~mip_gap_rel:params.mip_gap_rel
      ~mip_stall_nodes:params.mip_stall_nodes ~rack_level:false ?include_server
      snapshot reservations
  in
  let assignment1 = Formulation.decode phase1.Phases.formulation phase1.Phases.solution in
  let plan1 = Concretize.plan phase1.Phases.formulation assignment1 in
  let targets = Hashtbl.create 1024 in
  List.iter (fun (id, owner) -> Hashtbl.replace targets id owner) plan1.Concretize.targets;
  (* ---- phase 2: rack refinement for the worst reservations ---- *)
  let phase2 =
    if not params.run_phase2 then None
    else begin
      let scored =
        List.filter_map
          (fun res ->
            let overflow = rack_overflow snapshot targets res in
            if overflow > 1e-6 then Some (overflow, res) else None)
          reservations
      in
      if scored = [] then None
      else begin
        let scored = List.sort (fun (a, _) (b, _) -> compare b a) scored in
        let quota =
          Int.max 1 (int_of_float (phase2_fraction *. float_of_int (List.length reservations)))
        in
        let snapshot2_all = with_targets snapshot targets in
        (* accumulate reservations while the grouped-variable estimate stays
           under the cap (one variable per rack-level class x reservation) *)
        let selected = ref [] and var_estimate = ref 0 in
        List.iteri
          (fun i (_, res) ->
            if i < quota then begin
              let owner_code = Broker.owner_code (owner_of_res res) in
              let free_code = Broker.owner_code Broker.Free in
              let counted = ref 0 in
              for id = 0 to Snapshot.num_servers snapshot2_all - 1 do
                if Snapshot.usable_at snapshot2_all id then begin
                  let c = Snapshot.current_code snapshot2_all id in
                  if c = owner_code || c = free_code then incr counted
                end
              done;
              let server_count = !counted in
              (* rack-level classes are at worst one per server *)
              if !var_estimate + server_count <= phase2_var_cap then begin
                selected := res :: !selected;
                var_estimate := !var_estimate + server_count
              end
            end)
          scored;
        match !selected with
        | [] -> None
        | selected ->
          let owners = List.map owner_of_res selected in
          let user_filter =
            match include_server with Some f -> f | None -> fun _ -> true
          in
          let include_server (v : Snapshot.server_view) =
            (v.Snapshot.current = Broker.Free || List.mem v.Snapshot.current owners)
            && user_filter v
          in
          let result =
            Phases.run ~params:params.formulation
              ~mip_time_limit:params.phase2_time_limit_s ~mip_node_limit:params.node_limit
              ~mip_gap_rel:params.mip_gap_rel ~mip_stall_nodes:params.mip_stall_nodes
              ~rack_level:true ~include_server snapshot2_all selected
          in
          let assignment2 = Formulation.decode result.Phases.formulation result.Phases.solution in
          let plan2 = Concretize.plan result.Phases.formulation assignment2 in
          List.iter (fun (id, owner) -> Hashtbl.replace targets id owner) plan2.Concretize.targets;
          Some result
      end
    end
  in
  (* ---- merge: moves relative to the original snapshot ---- *)
  let moves = ref [] and target_list = ref [] in
  Hashtbl.iter
    (fun id owner ->
      target_list := (id, owner) :: !target_list;
      let current = Snapshot.current snapshot id in
      if current <> owner then
        moves :=
          {
            Concretize.server = id;
            from_ = current;
            to_ = owner;
            was_in_use = Snapshot.in_use_at snapshot id;
          }
          :: !moves)
    targets;
  let plan =
    {
      Concretize.moves =
        List.sort (fun a b -> compare a.Concretize.server b.Concretize.server) !moves;
      targets = List.sort compare !target_list;
    }
  in
  let shortfalls =
    let base = Formulation.capacity_shortfalls phase1.Phases.formulation phase1.Phases.solution in
    match phase2 with
    | None -> base
    | Some p2 ->
      let selected_ids =
        List.map (fun r -> r.Reservation.id) p2.Phases.formulation.Formulation.reservations
      in
      let p2_shortfalls =
        Formulation.capacity_shortfalls p2.Phases.formulation p2.Phases.solution
      in
      List.filter (fun (rid, _) -> not (List.mem rid selected_ids)) base @ p2_shortfalls
  in
  let gap = phase1.Phases.outcome.Branch_bound.gap in
  (* aggregate B&B kernel counters over both phases: the solver-throughput
     quantity the kernel benchmarks track *)
  let outcomes =
    phase1.Phases.outcome
    :: (match phase2 with Some p2 -> [ p2.Phases.outcome ] | None -> [])
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  {
    phase1;
    phase2;
    plan;
    duration_s = Unix.gettimeofday () -. start;
    shortfalls;
    moves_in_use = Concretize.moves_in_use plan;
    moves_unused = Concretize.moves_unused plan;
    gap_preemptions =
      (if Float.is_finite gap then gap /. params.formulation.Formulation.move_cost_in_use
       else infinity);
    proven_constraints_fixed =
      Float.is_finite gap && gap < params.formulation.Formulation.capacity_slack_cost;
    solver_nodes = sum (fun o -> o.Branch_bound.nodes);
    solver_lp_iterations = sum (fun o -> o.Branch_bound.lp_iterations);
    solver_warm_starts = sum (fun o -> o.Branch_bound.warm_started_nodes);
    solver_dual_restarts = sum (fun o -> o.Branch_bound.dual_restarted_nodes);
    solver_dual_pivots = sum (fun o -> o.Branch_bound.dual_pivots);
    solver_bland_pivots = sum (fun o -> o.Branch_bound.bland_pivots);
  }
