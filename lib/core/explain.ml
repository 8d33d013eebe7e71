module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware
module Broker = Ras_broker.Broker
module Branch_bound = Ras_mip.Branch_bound

let reservation_report (snapshot : Snapshot.t) res =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let total = Snapshot.current_rru snapshot res in
  add "%s (reservation %d)\n" res.Reservation.name res.Reservation.id;
  add "  capacity: %.1f RRU bound / %.1f requested%s\n" total res.Reservation.capacity_rru
    (if total >= res.Reservation.capacity_rru then "" else "  ** SHORT **");
  (* hardware mix *)
  let hw_counts = Array.make Hw.count 0 in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    if Snapshot.usable_at snapshot id then begin
      let hw = (Snapshot.server snapshot id).Region.hw in
      if Snapshot.owned_by_code res (Snapshot.current_code snapshot id) hw then
        hw_counts.(hw.Hw.index) <- hw_counts.(hw.Hw.index) + 1
    end
  done;
  add "  hardware:";
  Array.iteri
    (fun i c -> if c > 0 then add " %s x%d" Hw.catalog.(i).Hw.code c)
    hw_counts;
  add "\n";
  (* MSB spread *)
  let per_msb = Snapshot.rru_by_msb snapshot res in
  let max_share = Snapshot.max_msb_share snapshot res in
  let used_msbs = Array.fold_left (fun acc v -> if v > 0.0 then acc + 1 else acc) 0 per_msb in
  if Float.is_nan max_share then add "  spread: no capacity bound yet\n"
  else begin
    add "  spread: %d/%d MSBs, max MSB share %.1f%% (limit alpha_F = %.1f%%)%s\n" used_msbs
      (Array.length per_msb) (100.0 *. max_share)
      (100.0 *. res.Reservation.msb_spread_limit)
      (if max_share > res.Reservation.msb_spread_limit +. 1e-9 then "  ** OVER **" else "");
    if res.Reservation.embedded_buffer then begin
      let max_msb = Array.fold_left Float.max 0.0 per_msb in
      let survives = total -. max_msb >= res.Reservation.capacity_rru -. 1e-9 in
      add "  embedded buffer: %s (capacity after worst MSB loss: %.1f / %.1f needed)\n"
        (if survives then "covers one MSB failure" else "** CANNOT cover an MSB failure **")
        (total -. max_msb) res.Reservation.capacity_rru
    end
  end;
  (* storage quorum spread *)
  (match res.Reservation.hard_msb_cap with
  | Some cap when total > 0.0 ->
    let per_msb = Snapshot.rru_by_msb snapshot res in
    let worst = Array.fold_left Float.max 0.0 per_msb /. total in
    add "  quorum spread: max MSB holds %.1f%% of total (hard cap %.1f%%)%s\n" (100.0 *. worst)
      (100.0 *. cap)
      (if worst > cap +. 1e-9 then "  ** QUORUM AT RISK **" else "")
  | Some _ | None -> ());
  (* datacenter affinity *)
  if res.Reservation.dc_affinity <> [] then begin
    let per_dc = Snapshot.rru_by_dc snapshot res in
    List.iter
      (fun (dc, target) ->
        let share = if total > 0.0 then per_dc.(dc) /. res.Reservation.capacity_rru else 0.0 in
        add "  affinity: DC%d holds %.1f%% of requested capacity (target %.1f%% +/- %.1f%%)\n" dc
          (100.0 *. share) (100.0 *. target)
          (100.0 *. res.Reservation.affinity_tolerance))
      res.Reservation.dc_affinity
  end;
  Buffer.contents buf

let shortfall_reason (snapshot : Snapshot.t) res ~shortfall =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "reservation %d (%s) is short %.1f RRU: " res.Reservation.id res.Reservation.name shortfall;
  let acceptable_total = ref 0.0 and acceptable_free = ref 0.0 and acceptable_types = ref 0 in
  Array.iter
    (fun hw ->
      if res.Reservation.rru_of hw > 0.0 then incr acceptable_types)
    Hw.catalog;
  let free_code = Broker.owner_code Broker.Free in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    let value = res.Reservation.rru_of (Snapshot.server snapshot id).Region.hw in
    if value > 0.0 && Snapshot.usable_at snapshot id then begin
      acceptable_total := !acceptable_total +. value;
      if Snapshot.current_code snapshot id = free_code then
        acceptable_free := !acceptable_free +. value
    end
  done;
  if !acceptable_types = 0 then add "no hardware subtype in the catalog is acceptable."
  else if !acceptable_total < res.Reservation.capacity_rru then
    add
      "only %.1f RRU of acceptable hardware exists region-wide (%d subtypes acceptable); the \
       request cannot be met without new hardware."
      !acceptable_total !acceptable_types
  else if !acceptable_free <= 0.0 then
    add
      "acceptable hardware exists (%.1f RRU across %d subtypes) but none is free; capacity is \
       held by other reservations or buffers."
      !acceptable_total !acceptable_types
  else
    add
      "%.1f RRU of acceptable hardware is free, but spread/buffer constraints prevent using it \
       without violating placement goals."
      !acceptable_free;
  Buffer.contents buf

let timing_line label (t : Phases.timing) =
  Printf.sprintf "  %s: total %.2fs = ras-build %.2fs + solver-build %.2fs + initial %.2fs + MIP %.2fs"
    label (Phases.total_s t) t.Phases.ras_build_s t.Phases.solver_build_s t.Phases.initial_state_s
    t.Phases.mip_s

let solve_report (stats : Async_solver.stats) =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "solve finished in %.2fs\n" stats.Async_solver.duration_s;
  let p1 = stats.Async_solver.phase1 in
  add "%s\n" (timing_line "phase 1" p1.Phases.timing);
  add "    %d grouped vars (%d raw), %d rows, MIP nodes %d\n" p1.Phases.grouped_vars
    p1.Phases.raw_vars p1.Phases.rows p1.Phases.outcome.Branch_bound.nodes;
  add
    "  solver kernels: %d B&B nodes (%d warm-started, %d dual-restarted), %d LP pivots (%d \
     dual, %d bland)\n"
    stats.Async_solver.solver_nodes stats.Async_solver.solver_warm_starts
    stats.Async_solver.solver_dual_restarts stats.Async_solver.solver_lp_iterations
    stats.Async_solver.solver_dual_pivots stats.Async_solver.solver_bland_pivots;
  (match stats.Async_solver.phase2 with
  | Some p2 ->
    add "%s\n" (timing_line "phase 2" p2.Phases.timing);
    add "    %d grouped vars (%d raw), %d rows\n" p2.Phases.grouped_vars p2.Phases.raw_vars
      p2.Phases.rows
  | None -> add "  phase 2: skipped (no rack goal violations)\n");
  add "  moves: %d in-use, %d unused\n" stats.Async_solver.moves_in_use
    stats.Async_solver.moves_unused;
  add "  optimality gap: %.1f preemption-units; all fixable constraints proven fixed: %b\n"
    stats.Async_solver.gap_preemptions stats.Async_solver.proven_constraints_fixed;
  if stats.Async_solver.shortfalls = [] then add "  all capacity constraints satisfied\n"
  else
    List.iter
      (fun (rid, v) -> add "  UNMET: reservation %d short %.1f RRU\n" rid v)
      stats.Async_solver.shortfalls;
  Buffer.contents buf

let shadow_prices ?(top = 10) (phase : Phases.result) =
  let duals = phase.Phases.lp_duals in
  let std = phase.Phases.compiled in
  if Array.length duals <> std.Ras_mip.Model.nrows then []
  else begin
    let priced = ref [] in
    Array.iteri
      (fun i d ->
        if Float.abs d > 1e-6 then
          priced := (std.Ras_mip.Model.row_names.(i), d) :: !priced)
      duals;
    let sorted =
      List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a)) !priced
    in
    List.filteri (fun i _ -> i < top) sorted
  end
