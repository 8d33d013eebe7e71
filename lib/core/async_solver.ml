module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Branch_bound = Ras_mip.Branch_bound
module Hw = Ras_topology.Hardware

type params = Phases.params = {
  formulation : Formulation.params;
  phase1_time_limit_s : float;
  phase2_time_limit_s : float;
  node_limit : int;
  mip_gap_rel : float;
  mip_stall_nodes : int;
}

let default_params = Phases.default_params

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
  solver_dual_pivots : int;
}

(* Rack-spread overflow of every reservation once a round's moves are
   made (0 for one without a rack goal) — the phase-2 selection criterion
   ("reservations with the worst rack-level objectives are prioritized",
   §3.5.2).  One pass over the servers, with a cursor in the id-sorted
   moves, sums RRU per (rack-goal reservation, rack). *)
let rack_overflows (snapshot : Snapshot.t) (moves : Concretize.move list) =
  let region = snapshot.Snapshot.region in
  let reservations = snapshot.Snapshot.reservations in
  let res = Array.of_list reservations in
  let has_goal r = r.Reservation.rack_spread_limit <> None in
  let code_of r = Broker.owner_code (Reservation.owner r) in
  let max_code =
    Array.fold_left (fun m r -> if has_goal r then Int.max m (code_of r) else m) (-1) res
  in
  (* owner code -> the rack-goal reservations it serves (buffer
     reservations share one code) *)
  let goals_of = Array.make (max_code + 1) [] in
  Array.iteri (fun i r -> if has_goal r then goals_of.(code_of r) <- i :: goals_of.(code_of r)) res;
  let rru =
    Array.map (fun r -> if has_goal r then Array.map r.Reservation.rru_of Hw.catalog else [||]) res
  in
  let per_rack =
    Array.map (fun r -> if has_goal r then Array.make region.Region.num_racks 0.0 else [||]) res
  in
  let rec add hw rack = function
    | [] -> ()
    | i :: goals ->
      let v = rru.(i).(hw) in
      if v > 0.0 then per_rack.(i).(rack) <- per_rack.(i).(rack) +. v;
      add hw rack goals
  in
  let moves = ref moves in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    let code =
      match !moves with
      | m :: rest when m.Concretize.server = id ->
        moves := rest;
        Broker.owner_code m.Concretize.to_
      | _ -> Snapshot.current_code snapshot id
    in
    (* a reservation of the snapshot holds its usable servers in scope:
       the down ones have no target and count nowhere *)
    if code <= max_code && goals_of.(code) != [] && Snapshot.usable_at snapshot id then begin
      let s = region.Region.servers.(id) in
      add s.Region.hw.Hw.index s.Region.loc.Region.rack goals_of.(code)
    end
  done;
  List.mapi
    (fun i r ->
      match r.Reservation.rack_spread_limit with
      | None -> 0.0
      | Some alpha_k ->
        let limit = alpha_k *. r.Reservation.capacity_rru in
        (* racks the reservation does not touch contribute nothing *)
        Array.fold_left
          (fun acc v -> if v > 0.0 then acc +. Float.max 0.0 (v -. limit) else acc)
          0.0 per_rack.(i))
    reservations

(* The snapshot phase 2 solves from: every moved server on its target
   owner. *)
let with_moves (snapshot : Snapshot.t) (moves : Concretize.move list) =
  let current = Array.copy snapshot.Snapshot.current in
  let in_use = Bytes.copy snapshot.Snapshot.in_use in
  List.iter
    (fun (m : Concretize.move) ->
      current.(m.Concretize.server) <- Broker.owner_code m.Concretize.to_;
      (* a moved server is preempted: it arrives idle *)
      Bytes.set in_use m.Concretize.server '\000')
    moves;
  { snapshot with Snapshot.current; in_use }

let solve ?(params = default_params) (snapshot : Snapshot.t) =
  let start = Unix.gettimeofday () in
  let reservations = snapshot.Snapshot.reservations in
  let phase1 = Phases.run ~params ~rack_level:false snapshot in
  let f1 = phase1.Phases.formulation in
  let assignment1 = Formulation.decode f1 phase1.Phases.solution in
  let moves1 = Concretize.moves_of f1 assignment1 in
  (* ---- phase 2: rack refinement for the worst reservations ---- *)
  (* a reservation's phase-2 pool is what it holds after phase 1 plus the
     free servers; rack-level classes are at worst one per server, so the
     pool bounds its grouped-variable estimate *)
  let held = Concretize.held f1 assignment1 in
  let pool res = held (Reservation.owner res) + held Broker.Free in
  let fits res = res.Reservation.rack_spread_limit <> None && pool res <= phase2_var_cap in
  let selected =
    (* the cap is cumulative, so it only admits a reservation that fits
       on its own: without one, nothing is scored *)
    if not (List.exists fits reservations) then []
    else begin
      let scored =
        List.combine (rack_overflows snapshot moves1) reservations
        |> List.filter (fun (overflow, _) -> overflow > 1e-6)
        |> List.sort (fun (a, _) (b, _) -> compare b a)
      in
      let quota =
        Int.max 1 (int_of_float (phase2_fraction *. float_of_int (List.length reservations)))
      in
      (* accumulate reservations while the estimate stays under the cap *)
      List.filteri (fun i _ -> i < quota) scored
      |> List.fold_left
           (fun (selected, estimate) (_, res) ->
             let n = pool res in
             if estimate + n <= phase2_var_cap then (res :: selected, estimate + n)
             else (selected, estimate))
           ([], 0)
      |> fst
    end
  in
  let phase2 =
    match selected with
    | [] -> None
    | selected ->
      Some
        (Phases.run ~params ~rack_level:true
           { (with_moves snapshot moves1) with Snapshot.reservations = selected })
  in
  (* ---- merge: phase 2's moves override phase 1's ---- *)
  let moves =
    match phase2 with
    | None -> moves1
    | Some p2 ->
      let f2 = p2.Phases.formulation in
      Concretize.merge snapshot ~phase1:moves1
        ~phase2:(Concretize.moves_of f2 (Formulation.decode f2 p2.Phases.solution))
  in
  (* phase 2 covers a subset of the servers phase 1 covers *)
  let plan = Concretize.of_moves ~covers:(Snapshot.covers snapshot) moves in
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
    solver_dual_pivots = sum (fun o -> o.Branch_bound.dual_pivots);
  }
