(* Elastic reservations (§3.4): buffers that are not actively absorbing a
   failure are lent to opportunistic workloads (async compute, offline ML
   training) and revoked the moment failure handling needs them back.

   Run with: dune exec examples/elastic_harvest.exe *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Unavail = Ras_failures.Unavail
module Allocator = Ras_twine.Allocator
module Job = Ras_twine.Job

let elastic_id = 9000

let () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let web = Service.make ~id:1 ~name:"frontend" ~profile:Service.Web () in
  let reservations =
    [ Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:12.0 ()) ]
    @ Buffers.shared_buffer_reservations region ~fraction:0.05
  in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let stats = Async_solver.solve (Snapshot.take broker reservations) in
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  Printf.printf "shared buffer holds %d servers\n"
    (Broker.count_owner broker Broker.Shared_buffer);

  (* lend idle buffer capacity to the elastic reservation *)
  let lent = Online_mover.lend_idle mover ~elastic_id ~max_servers:max_int in
  Printf.printf "lent %d idle buffer servers to elastic reservation %d\n" lent elastic_id;

  (* an opportunistic batch job runs on the elastic reservation *)
  let batch = Service.make ~id:2 ~name:"batch" ~profile:Service.Batch_async () in
  let alloc =
    Allocator.create broker ~reservation:elastic_id ~rru_of:(Service.rru_of batch)
  in
  Broker.subscribe broker (Allocator.on_event alloc);
  let job = Job.make ~id:1 ~reservation:elastic_id ~replicas:lent ~rru_per_replica:0.5 () in
  (match Allocator.place_job alloc job with
  | Ok () ->
    Printf.printf "batch job: %d opportunistic containers running\n"
      (Allocator.placed_containers alloc)
  | Error e -> Printf.printf "batch job could not start: %s\n" e);

  (* a guaranteed server fails: the mover revokes a loan for the replacement *)
  let victim = List.hd (Broker.servers_with_owner broker (Broker.Reservation 1)) in
  Printf.printf "\n*** server %d of the guaranteed reservation fails ***\n" victim;
  Broker.mark_down broker victim Unavail.Unplanned_hw;
  Printf.printf "replacements done: %d; loans outstanding: %d (was %d)\n"
    (Online_mover.replacements_done mover)
    (Online_mover.loans_outstanding mover)
    lent;
  Printf.printf "batch containers still running: %d (evicted ones pend for retry)\n"
    (Allocator.placed_containers alloc);

  (* wind the experiment down: revoke everything *)
  let revoked = Online_mover.revoke mover ~elastic_id in
  Printf.printf "\nrevoked %d remaining loans; buffer back to %d servers\n" revoked
    (Broker.count_owner broker Broker.Shared_buffer)
