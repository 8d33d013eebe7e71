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
  let measure () = Ras.Buffers.embedded_buffer_fraction (Ras.Snapshot.take broker all_res) in
  Report.row "week  0.0 (greedy baseline): %5.1f%% machines in max MSB\n"
    (Report.pct (measure ()));
  let sys = Scenarios.system broker in
  let enable, legacy_moved = Scenarios.ramp sys requests in
  let weeks = Scenarios.scaled 8 in
  let total = List.length requests in
  let worst = ref 0 in
  for day = 0 to (weeks * 7) - 1 do
    let week = day / 7 in
    (* enable reservations progressively over the first six weeks *)
    enable (Stdlib.min total (Stdlib.max 1 ((week + 1) * total / 6)));
    (* datacenter expansion at the start of week 5 *)
    if day = 5 * 7 && (Broker.region broker).Region.num_msbs = 32 then begin
      let extended =
        Generator.extend (Broker.region broker) ~new_msbs_per_dc:1
          ~racks_per_msb:params.Generator.racks_per_msb
          ~servers_per_rack:params.Generator.servers_per_rack ~seed:77
      in
      Ras.System.extend_region sys extended;
      Report.row "week  5.0: region extended to %d MSBs\n" extended.Region.num_msbs
    end;
    ignore (Ras.System.solve_now sys);
    worst := Stdlib.max !worst (legacy_moved ());
    if (day + 1) mod 7 = 0 then
      Report.row "week %4.1f: %5.1f%% machines in max MSB\n"
        (float_of_int (day + 1) /. 7.0)
        (Report.pct (measure ()))
  done;
  Report.check (!worst = 0)
    "fig12: %d servers of a not-yet-enabled reservation changed owner during the ramp" !worst;
  (* bounds *)
  let reservations = all_res @ List.filter Ras.Reservation.is_buffer (Ras.System.reservations sys) in
  let hw_bound =
    Ras.Buffers.hardware_aware_bound (Ras.Snapshot.take broker reservations)
  in
  Report.row "hardware-aware lower bound: %5.1f%%  (paper: 4.06%%)\n" (Report.pct hw_bound);
  Report.row "perfect-spread bound 1/%d:  %5.1f%%  (paper: 2.8%%)\n"
    (Broker.region broker).Region.num_msbs
    (Report.pct (Ras.Buffers.perfect_spread_bound (Broker.region broker)))
