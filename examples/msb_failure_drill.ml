(* MSB failure drill: the paper's headline guarantee in action (§3.3.1).

   A reservation with an embedded correlated-failure buffer must keep its
   containers running when an entire MSB (thousands of servers in
   production) fails at once — with NO mover action on the critical path:
   the buffer servers are already inside the reservation.

   The drill: allocate, fill with containers, kill the MSB that hosts the
   most of them, and verify every container is re-placed instantly on the
   surviving in-reservation capacity.  Then trigger a single-server random
   failure and watch the Online Mover pull a replacement from the shared
   buffer instead.

   Run with: dune exec examples/msb_failure_drill.exe *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Unavail = Ras_failures.Unavail
module Allocator = Ras_twine.Allocator
module Job = Ras_twine.Job

let () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let web = Service.make ~id:1 ~name:"frontend" ~profile:Service.Web () in
  let request =
    Capacity_request.make ~id:1 ~service:web ~rru:20.0 ~msb_spread_limit:0.3 ()
  in
  let reservations =
    [ Reservation.of_request request ]
    @ Buffers.shared_buffer_reservations region ~fraction:0.03
  in
  let res = List.hd reservations in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;

  let stats = Async_solver.solve (Snapshot.take broker reservations) in
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  let snapshot = Snapshot.take broker reservations in
  Printf.printf "allocated %.1f RRU for a %.1f RRU request (embedded buffer included)\n"
    (Snapshot.current_rru snapshot res)
    res.Reservation.capacity_rru;

  (* fill the requested capacity with containers *)
  let alloc = Allocator.create broker ~reservation:1 ~rru_of:res.Reservation.rru_of in
  (* failures reach the allocator through the broker's event feed *)
  Broker.subscribe broker (Allocator.on_event alloc);
  let job = Job.make ~id:1 ~reservation:1 ~replicas:20 ~rru_per_replica:1.0 () in
  (match Allocator.place_job alloc job with
  | Ok () -> Printf.printf "running %d containers\n" (Allocator.placed_containers alloc)
  | Error e -> failwith e);

  (* find the MSB hosting the most containers and kill all of it *)
  let msb_load = Hashtbl.create 8 in
  List.iter
    (fun sid ->
      let msb = region.Region.servers.(sid).Region.loc.Region.msb in
      Hashtbl.replace msb_load msb (1 + (try Hashtbl.find msb_load msb with Not_found -> 0)))
    (Allocator.servers_in_use alloc);
  let worst_msb, hosted =
    Hashtbl.fold (fun m c (bm, bc) -> if c > bc then (m, c) else (bm, bc)) msb_load (-1, 0)
  in
  Printf.printf "\n*** correlated failure: MSB %d goes dark (%d container-hosting servers) ***\n"
    worst_msb hosted;
  let replacements_before = Online_mover.replacements_done mover in
  List.iter
    (fun (s : Region.server) -> Broker.mark_down broker s.Region.id Unavail.Correlated)
    (Region.servers_of_msb region worst_msb);

  Printf.printf "containers still running: %d/20 (pending: %d)\n"
    (Allocator.placed_containers alloc)
    (Allocator.pending_containers alloc);
  Printf.printf "mover actions used for the correlated failure: %d (buffer was embedded)\n"
    (Online_mover.replacements_done mover - replacements_before);

  (* now a random single-server failure: the shared buffer replaces it *)
  (match Allocator.servers_in_use alloc with
  | sid :: _ ->
    Printf.printf "\n*** random failure: server %d dies ***\n" sid;
    Broker.mark_down broker sid Unavail.Unplanned_hw;
    Printf.printf "mover replacements from shared buffer: %d, containers running: %d/20\n"
      (Online_mover.replacements_done mover - replacements_before)
      (Allocator.placed_containers alloc)
  | [] -> ());

  (* recovery: the MSB comes back, the next solve re-optimizes *)
  List.iter
    (fun (s : Region.server) -> Broker.mark_up broker s.Region.id)
    (Region.servers_of_msb region worst_msb);
  let stats = Async_solver.solve (Snapshot.take broker reservations) in
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  Printf.printf "\nafter recovery solve: %d moves, %d shortfalls\n"
    (List.length stats.Async_solver.plan.Concretize.moves)
    (List.length stats.Async_solver.shortfalls)
