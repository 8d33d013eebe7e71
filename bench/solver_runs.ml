(* Shared driver for the solver-performance figures (7, 8, 9): a sequence of
   region solves under production-like conditions — each solve sees a
   slightly different world (random failures, capacity resizes) so the
   distribution of allocation times and quality gaps is meaningful. *)

module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Unavail = Ras_failures.Unavail
module Capacity_request = Ras_workload.Capacity_request

type run = { stats : Ras.Async_solver.stats; solve_index : int }

(* Aggregate B&B kernel counters over a run sequence: total nodes, LP
   pivots and warm-started nodes (see Async_solver solver_* stats). *)
let solver_totals runs =
  List.fold_left
    (fun (n, it, w) r ->
      let s = r.stats in
      ( n + s.Ras.Async_solver.solver_nodes,
        it + s.Ras.Async_solver.solver_lp_iterations,
        w + s.Ras.Async_solver.solver_warm_starts ))
    (0, 0, 0) runs

(* Per-solve wall-time distribution — the aggregate counters above hide the
   spread, which is the quantity Fig. 7 actually reports. *)
let duration_summary runs =
  let s = Ras_stats.Summary.create () in
  List.iter
    (fun r -> Ras_stats.Summary.add s r.stats.Ras.Async_solver.duration_s)
    runs;
  s

let with_rack_limits requests =
  List.map
    (fun (r : Capacity_request.t) ->
      if r.Capacity_request.rru >= 5.0 then
        { r with Capacity_request.rack_spread_limit = Some 0.06 }
      else r)
    requests

let churn = 0.01
let flip_prob = 0.7

let collect ?(solver = Scenarios.interactive_solver) ~solves () =
  let preset = Scenarios.Small in
  let region = Scenarios.region_of preset in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 2024 in
  let requests = with_rack_limits (Scenarios.requests_of preset region) in
  let reservations =
    List.map Ras.Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  let mover = Ras.Online_mover.create broker in
  Ras.Online_mover.set_reservations mover reservations;
  let runs = ref [] in
  for i = 0 to solves - 1 do
    (* perturb the world: a [churn] fraction of servers fail for the
       duration of the solve, and some servers flip their in-use bit
       (container churn) *)
    let n = Broker.num_servers broker in
    let down =
      List.init
        (Stdlib.max 1 (int_of_float (float_of_int n *. churn)))
        (fun _ -> Ras_stats.Rng.int rng n)
    in
    List.iter (fun id -> Broker.mark_down broker id Unavail.Unplanned_sw) down;
    for id = 0 to n - 1 do
      match Broker.current_owner broker id with
      | Broker.Reservation _ ->
        if Ras_stats.Rng.float rng 1.0 < flip_prob then Broker.set_in_use broker id true
      | Broker.Free | Broker.Shared_buffer | Broker.Elastic _ -> ()
    done;
    let snapshot = Ras.Snapshot.take broker reservations in
    let stats = Ras.Async_solver.solve ~params:solver snapshot in
    ignore (Ras.Online_mover.apply_plan mover stats.Ras.Async_solver.plan);
    List.iter (fun id -> Broker.mark_up broker id) down;
    runs := { stats; solve_index = i } :: !runs
  done;
  List.rev !runs
