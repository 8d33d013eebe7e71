(* Quickstart: the smallest end-to-end RAS flow.

   Build a synthetic two-datacenter region, file three capacity requests,
   run one Async Solver pass, execute the plan with the Online Mover, and
   print what each reservation received and why.

   Run with: dune exec examples/quickstart.exe *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request

let () =
  (* 1. a region: 2 DCs x 3 MSBs x 4 racks x 6 servers *)
  let region = Generator.generate Generator.small_params in
  Format.printf "%a@." Ras_topology.Region.pp_summary region;
  let broker = Broker.create region in

  (* 2. capacity requests: a web service that wants newer CPUs, a storage
     tier, and a cache; all sized in RRUs *)
  let web = Service.make ~id:1 ~name:"frontend" ~profile:Service.Web ~min_generation:2 () in
  let store = Service.make ~id:2 ~name:"blobstore" ~profile:Service.Data_store () in
  let cache = Service.make ~id:3 ~name:"memcache" ~profile:Service.Cache () in
  let requests =
    [
      Capacity_request.make ~id:1 ~service:web ~rru:14.0 ~msb_spread_limit:0.35 ();
      Capacity_request.make ~id:2 ~service:store ~rru:8.0 ~msb_spread_limit:0.4 ();
      Capacity_request.make ~id:3 ~service:cache ~rru:4.0 ~msb_spread_limit:0.5
        ~embedded_buffer:false ();
    ]
  in
  let reservations =
    List.map Reservation.of_request requests
    (* plus the shared random-failure buffer, 2% per hardware category *)
    @ Buffers.shared_buffer_reservations region ~fraction:0.02
  in

  (* 3. one continuous-optimization pass *)
  let snapshot = Snapshot.take broker reservations in
  let stats = Async_solver.solve snapshot in
  print_string (Explain.solve_report stats);

  (* 4. execute the binding intent *)
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let apply = Online_mover.apply_plan mover stats.Async_solver.plan in
  Printf.printf "mover executed %d moves (%d preempting)\n\n"
    (apply.Online_mover.moved_unused + apply.Online_mover.moved_in_use)
    apply.Online_mover.moved_in_use;

  (* 5. what did everyone get? *)
  let snapshot = Snapshot.take broker reservations in
  List.iter
    (fun res ->
      if not (Reservation.is_buffer res) then
        print_string (Explain.reservation_report snapshot res))
    reservations;

  (* 6. place containers on the web reservation through the Twine allocator *)
  let web_res = List.hd reservations in
  let alloc =
    Ras_twine.Allocator.create broker ~reservation:web_res.Reservation.id
      ~rru_of:web_res.Reservation.rru_of
  in
  (* re-place containers when one of the reservation's servers fails *)
  Broker.subscribe broker (Ras_twine.Allocator.on_event alloc);
  let job =
    Ras_twine.Job.make ~id:1 ~reservation:web_res.Reservation.id ~replicas:10
      ~rru_per_replica:1.0 ()
  in
  (match Ras_twine.Allocator.place_job alloc job with
  | Ok () ->
    Printf.printf "placed %d containers on %d servers\n"
      (Ras_twine.Allocator.placed_containers alloc)
      (List.length (Ras_twine.Allocator.servers_in_use alloc))
  | Error e -> Printf.printf "placement failed: %s\n" e)
