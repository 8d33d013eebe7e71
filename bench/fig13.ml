(* Fig. 13: spread of the top services across all MSBs after RAS reaches
   steady state.  Most services should show near-uniform shares across MSBs;
   the explained exceptions must appear: generation-pinned services miss the
   oldest/newest MSBs, and the ML service is confined to one datacenter. *)

module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Service = Ras_workload.Service

let run () =
  Report.heading "Figure 13: spread of services across MSBs"
    ~paper:"top-30 services nearly uniform; new-hw services skip old MSBs and vice versa; ML pinned to one DC"
    ~expect:"uniform rows except the constrained services (marked)";
  let region = Scenarios.region_of Scenarios.Wide in
  let sys = Scenarios.system (Broker.create region) in
  List.iter (Ras.System.add_request sys)
    (Scenarios.requests_of ~utilization:0.42 Scenarios.Wide region);
  (* a few solve iterations to steady state *)
  for _ = 1 to Scenarios.scaled 4 do
    ignore (Ras.System.solve_now sys)
  done;
  let snapshot = Ras.System.snapshot sys in
  let reservations = Ras.System.reservations sys in
  Report.row "%-24s" "service \\ MSB (oldest->newest)";
  for m = 0 to region.Region.num_msbs - 1 do
    Report.row "%3d" m
  done;
  Report.row "   max%%\n";
  List.iter
    (fun res ->
      if not (Ras.Reservation.is_buffer res) then begin
        let per_msb = Ras.Snapshot.rru_by_msb snapshot res in
        let total = Array.fold_left ( +. ) 0.0 per_msb in
        if total > 0.0 then begin
          Report.row "%-24s" res.Ras.Reservation.name;
          Array.iter
            (fun v ->
              let share = v /. total in
              if share <= 0.0 then Report.row "  ."
              else if share < 0.04 then Report.row "  -"
              else if share < 0.08 then Report.row "  o"
              else Report.row "  O")
            per_msb;
          Report.row "  %4.1f\n" (Report.pct (Array.fold_left Float.max 0.0 per_msb /. total))
        end
      end)
    reservations;
  Report.row "(legend: '.' none, '-' <4%%, 'o' 4-8%%, 'O' >8%% of the service's capacity)\n";
  (* verify the narrative constraints *)
  let find name =
    List.find_opt (fun r -> r.Ras.Reservation.name = name) reservations
  in
  (match find "ml-training-13" with
  | Some res ->
    let per_dc = Ras.Snapshot.rru_by_dc snapshot res in
    let total = Array.fold_left ( +. ) 0.0 per_dc in
    if total > 0.0 then
      Report.row "ML service DC shares:%s (affinity to DC2)\n"
        (String.concat ""
           (Array.to_list (Array.mapi (fun d v -> Printf.sprintf " DC%d=%.0f%%" d (Report.pct (v /. total))) per_dc)))
  | None -> ());
  List.iter
    (fun (name, expect) ->
      match find name with
      | Some res ->
        let per_msb = Ras.Snapshot.rru_by_msb snapshot res in
        let oldest = per_msb.(0) and newest = per_msb.(region.Region.num_msbs - 1) in
        Report.row "%s: oldest MSB %.1f RRU, newest MSB %.1f RRU (%s)\n" name oldest newest expect
      | None -> ())
    [ ("web-1", "needs gen>=2: expect 0 in oldest"); ("web-6", "gen<=2 only: expect 0 in newest") ]
