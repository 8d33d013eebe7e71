(* Figs. 10 & 11: setup time (RAS build + solver build + initial state) and
   solver memory as a function of the number of assignment variables, for
   both phases.  Both should grow roughly linearly; phase 2 stays smaller
   because it is capped. *)

module Generator = Ras_topology.Generator
module Broker = Ras_broker.Broker

type point = {
  grouped1 : int;
  raw1 : int;
  build1_s : float;  (* RAS build + solver build *)
  setup1_s : float;  (* build + initial-state LP *)
  bytes1 : int;
  grouped2 : int option;
  setup2_s : float option;
  bytes2 : int option;
}

let measure ~dcs ~msbs ~racks ~servers =
  let params =
    {
      Generator.name = "sweep";
      num_dcs = dcs;
      msbs_per_dc = msbs;
      racks_per_msb = racks;
      servers_per_rack = servers;
      seed = 5;
    }
  in
  let region = Generator.generate params in
  let broker = Broker.create region in
  let requests =
    Scenarios.with_rack_limits
      (Ras_workload.Request_gen.scenario (Ras_stats.Rng.create 11) ~region
         ~services:(Scenarios.services_of Scenarios.Wide) ~target_utilization:0.45)
  in
  let reservations =
    List.map Ras.Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  let snapshot = Ras.Snapshot.take broker reservations in
  let stats =
    Ras.Async_solver.solve ~params:Scenarios.simulation_solver snapshot
  in
  let p1 = stats.Ras.Async_solver.phase1 in
  let build t = t.Ras.Phases.ras_build_s +. t.Ras.Phases.solver_build_s in
  let setup t = build t +. t.Ras.Phases.initial_state_s in
  {
    grouped1 = p1.Ras.Phases.grouped_vars;
    raw1 = p1.Ras.Phases.raw_vars;
    build1_s = build p1.Ras.Phases.timing;
    setup1_s = setup p1.Ras.Phases.timing;
    bytes1 = p1.Ras.Phases.setup_bytes;
    grouped2 = Option.map (fun p -> p.Ras.Phases.grouped_vars) stats.Ras.Async_solver.phase2;
    setup2_s = Option.map (fun p -> setup p.Ras.Phases.timing) stats.Ras.Async_solver.phase2;
    bytes2 = Option.map (fun p -> p.Ras.Phases.setup_bytes) stats.Ras.Async_solver.phase2;
  }

let sweep_cache : point list option ref = ref None

let sweep () =
  match !sweep_cache with
  | Some s -> s
  | None ->
    let sizes =
      if !Scenarios.quick then [ (2, 3, 4, 6); (3, 4, 4, 8) ]
      else [ (2, 3, 4, 6); (3, 4, 4, 8); (3, 6, 6, 8); (4, 8, 6, 10); (4, 9, 8, 12) ]
    in
    let s = List.map (fun (d, m, r, v) -> measure ~dcs:d ~msbs:m ~racks:r ~servers:v) sizes in
    sweep_cache := Some s;
    s

let run_fig10 () =
  Report.heading "Figure 10: setup time vs assignment variables"
    ~paper:"RAS build + solver build + initial state grows linearly with variables; phase2 < phase1"
    ~expect:"monotone, roughly linear growth; phase-2 problems capped smaller";
  Report.row "%-12s %-12s %-12s %-14s %-12s %-12s\n" "grouped-P1" "raw-P1" "build-P1(s)"
    "+initLP-P1(s)" "grouped-P2" "setup-P2(s)";
  List.iter
    (fun p ->
      Report.row "%-12d %-12d %-12.3f %-14.3f %-12s %-12s\n" p.grouped1 p.raw1 p.build1_s
        p.setup1_s
        (match p.grouped2 with Some g -> string_of_int g | None -> "-")
        (match p.setup2_s with Some s -> Printf.sprintf "%.3f" s | None -> "-"))
    (sweep ());
  (* linearity check: time per variable should be roughly constant *)
  let ratios =
    List.filter_map
      (fun p -> if p.grouped1 > 0 then Some (p.build1_s /. float_of_int p.grouped1) else None)
      (sweep ())
  in
  (match (ratios, List.rev ratios) with
  | first :: _, last :: _ when first > 0.0 ->
    Report.row "build seconds per grouped variable: first %.2e, last %.2e (ratio %.2f)\n" first
      last (last /. first);
    Report.row
      "(the initial-state LP here is a bring-up solve: the empty status quo gives its crash\n \
       basis nothing to start from, so it runs as if cold and grows superlinearly; see\n \
       EXPERIMENTS.md)\n"
  | _ -> ())

let run_fig11 () =
  Report.heading "Figure 11: solver memory vs assignment variables"
    ~paper:"memory grows linearly, ~24GB at 6M variables"
    ~expect:"allocation during build grows roughly linearly with variables";
  Report.row "%-12s %-14s %-12s %-14s\n" "grouped-P1" "MB-P1" "grouped-P2" "MB-P2";
  List.iter
    (fun p ->
      Report.row "%-12d %-14.1f %-12s %-14s\n" p.grouped1
        (float_of_int p.bytes1 /. 1048576.0)
        (match p.grouped2 with Some g -> string_of_int g | None -> "-")
        (match p.bytes2 with
        | Some b -> Printf.sprintf "%.1f" (float_of_int b /. 1048576.0)
        | None -> "-"))
    (sweep ())
