(* Fig. 12: correlated-failure buffer reduction as RAS is gradually enabled.
   The paper starts from Twine's greedy assignment (15.1% of a service's
   machines in its fullest MSB, capacity-weighted), drops to 5.8% as RAS
   takes over reservation after reservation, and to 4.2% once additional
   MSBs land — near the hardware-aware lower bound of 4.06% (perfect-spread
   bound 100/36 = 2.8%). *)

module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Region = Ras_topology.Region
module Greedy = Ras_twine.Greedy

let run () =
  Report.heading "Figure 12: machines % in max MSB over two months"
    ~paper:"greedy 15.1% -> RAS 5.8% -> 4.2% after MSB additions; bounds 4.06% / 2.8%"
    ~expect:"large drop from greedy baseline toward the LP bound; further drop after extension";
  (* start at 32 MSBs, extend to 36 at week 5 so the final perfect-spread
     bound matches the paper's 2.8% *)
  let params = { (Scenarios.params_of Scenarios.Wide) with Generator.msbs_per_dc = 8 } in
  let region = Generator.generate params in
  let broker = Broker.create region in
  let requests = Scenarios.requests_of ~utilization:0.42 Scenarios.Wide region in
  let requests =
    List.sort
      (fun a b ->
        compare b.Ras_workload.Capacity_request.rru a.Ras_workload.Capacity_request.rru)
      requests
  in
  let greedy_result = Greedy.fulfill broker requests in
  let unmet = List.filter (fun (_, short) -> short > 0.0) greedy_result in
  if unmet <> [] then
    Report.row "note: greedy left %d requests short (they stay short until RAS)\n"
      (List.length unmet);
  let all_res = List.map Ras.Reservation.of_request requests in
  let buffers () =
    Ras.Buffers.shared_buffer_reservations (Broker.region broker) ~fraction:0.02
  in
  let measure () =
    let snap = Ras.Snapshot.take broker all_res in
    Ras.Buffers.embedded_buffer_fraction snap
  in
  Report.row "week  0.0 (greedy baseline): %5.1f%% machines in max MSB\n"
    (Report.pct (measure ()));
  let mover = Ras.Online_mover.create broker in
  let weeks = Scenarios.scaled 8 in
  let total = List.length all_res in
  let series = ref [] in
  for day = 0 to (weeks * 7) - 1 do
    let week = day / 7 in
    (* enable reservations progressively over the first six weeks *)
    let enabled_count = Stdlib.min total (Stdlib.max 1 ((week + 1) * total / 6)) in
    let enabled = List.filteri (fun i _ -> i < enabled_count) all_res in
    (* datacenter expansion at the start of week 5 *)
    if day = 5 * 7 && (Broker.region broker).Region.num_msbs = 32 then begin
      let extended =
        Generator.extend (Broker.region broker) ~new_msbs_per_dc:1
          ~racks_per_msb:params.Generator.racks_per_msb
          ~servers_per_rack:params.Generator.servers_per_rack ~seed:77
      in
      Broker.extend_region broker extended;
      Report.row "week  5.0: region extended to %d MSBs\n" extended.Region.num_msbs
    end;
    let reservations = enabled @ buffers () in
    Ras.Online_mover.set_reservations mover reservations;
    let enabled_owners =
      List.map Broker.owner_code
        (Broker.Free :: Broker.Shared_buffer :: List.map Ras.Reservation.owner reservations)
    in
    let snapshot = Ras.Snapshot.take broker reservations in
    let include_server id = List.mem (Ras.Snapshot.current_code snapshot id) enabled_owners in
    let stats =
      Ras.Async_solver.solve ~params:Scenarios.simulation_solver ~include_server snapshot
    in
    ignore (Ras.Online_mover.apply_plan mover stats.Ras.Async_solver.plan);
    series := (float_of_int (day + 1) /. 7.0, measure ()) :: !series
  done;
  List.iter
    (fun (w, v) ->
      if Float.rem w 1.0 < 0.01 || w = float_of_int weeks then
        Report.row "week %4.1f: %5.1f%% machines in max MSB\n" w (Report.pct v))
    (List.rev !series);
  (* bounds *)
  let final_snap = Ras.Snapshot.take broker (all_res @ buffers ()) in
  let hw_bound = Ras.Buffers.hardware_aware_bound final_snap (all_res @ buffers ()) in
  Report.row "hardware-aware lower bound: %5.1f%%  (paper: 4.06%%)\n" (Report.pct hw_bound);
  Report.row "perfect-spread bound 1/%d:  %5.1f%%  (paper: 2.8%%)\n"
    (Broker.region broker).Region.num_msbs
    (Report.pct (Ras.Buffers.perfect_spread_bound (Broker.region broker)))
