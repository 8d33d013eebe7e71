(* Network affinity (§3.5.3 expression 7, §4.5): a Presto-like SQL service
   whose data lives in one datacenter should get most of its compute from
   that datacenter, trading a little fault-domain spread for a large cut in
   cross-datacenter traffic.

   We solve the same region twice — without and with the affinity
   constraint — and compare the cross-DC share of the service's working
   capacity, i.e. the quantity Fig. 15 tracks.

   Run with: dune exec examples/network_affinity.exe *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Traffic = Ras_workload.Traffic

let data_dc = 0

let run_once ~with_affinity =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let presto =
    Service.make ~id:1 ~name:"presto-batch" ~profile:Service.Presto_batch
      ~data_locality:data_dc ()
  in
  let filler = Service.make ~id:2 ~name:"filler" ~profile:Service.Generic () in
  let dc_affinity = if with_affinity then [ (data_dc, 0.85) ] else [] in
  let requests =
    [
      Capacity_request.make ~id:1 ~service:presto ~rru:20.0 ~msb_spread_limit:0.3 ~dc_affinity
        ~affinity_tolerance:0.1 ();
      Capacity_request.make ~id:2 ~service:filler ~rru:30.0 ~msb_spread_limit:0.3 ();
    ]
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let stats = Async_solver.solve (Snapshot.take broker reservations) in
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  let snapshot = Snapshot.take broker reservations in
  let res = List.hd reservations in
  let per_dc = Snapshot.rru_by_dc snapshot res in
  let cross =
    Traffic.cross_dc_working_fraction ~data_dc ~capacity_per_dc:per_dc
      ~requested:res.Reservation.capacity_rru
  in
  let volume =
    Traffic.cross_dc_gb ~service:presto ~data_dc ~capacity_per_dc:per_dc ~hours:24.0
  in
  (per_dc, cross, volume, Snapshot.max_msb_share snapshot res)

let () =
  let per_dc0, cross0, gb0, spread0 = run_once ~with_affinity:false in
  let per_dc1, cross1, gb1, spread1 = run_once ~with_affinity:true in
  let show label per_dc cross gb spread =
    Printf.printf "%-18s per-DC RRU = [%s]  cross-DC traffic = %.0f%% (%.0f GB/day)  max-MSB share = %.0f%%\n"
      label
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.1f") per_dc)))
      (100.0 *. cross) gb (100.0 *. spread)
  in
  Printf.printf "presto-batch, data in DC%d:\n" data_dc;
  show "without affinity" per_dc0 cross0 gb0 spread0;
  show "with affinity" per_dc1 cross1 gb1 spread1;
  if cross1 < cross0 then
    Printf.printf "\naffinity cut cross-DC traffic %.1fx (paper: 2.3x for Presto batch)\n"
      (cross0 /. Float.max 0.01 cross1)
  else
    Printf.printf "\nno improvement — region too small for the affinity window\n";
  Printf.printf "note the spread trade-off: %.0f%% -> %.0f%% max-MSB share (§4.5)\n"
    (100.0 *. spread0) (100.0 *. spread1)
