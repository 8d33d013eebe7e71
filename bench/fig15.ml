(* Fig. 15: cross-datacenter traffic share for the two Presto services as
   the expression-(7) affinity constraints are enabled.  The paper reports a
   2.3x reduction for Presto Batch and 1.6x for Presto Interactive over two
   months. *)

module Broker = Ras_broker.Broker
module Capacity_request = Ras_workload.Capacity_request
module Traffic = Ras_workload.Traffic

let run () =
  Report.heading "Figure 15: cross-datacenter traffic for Presto"
    ~paper:"batch cut 2.3x, interactive cut 1.6x after affinity constraints roll out"
    ~expect:"large cross-DC share before the constraint, dropping toward theta once enabled";
  let region = Scenarios.region_of Scenarios.Medium in
  let broker = Broker.create region in
  let requests = Scenarios.requests_of Scenarios.Medium region in
  (* Presto must be large enough that a +/- theta affinity window spans
     several servers *)
  let requests =
    List.map
      (fun (r : Capacity_request.t) ->
        if
          r.Capacity_request.service.Ras_workload.Service.profile
          = Ras_workload.Service.Presto_batch
          || r.Capacity_request.service.Ras_workload.Service.profile
             = Ras_workload.Service.Presto_interactive
        then { r with Capacity_request.rru = Stdlib.max 40.0 r.Capacity_request.rru }
        else r)
      requests
  in
  (* strip affinity first: the 'before' period places Presto without it *)
  let strip (r : Capacity_request.t) = { r with Capacity_request.dc_affinity = [] } in
  let is_presto (r : Capacity_request.t) =
    let p = r.Capacity_request.service.Ras_workload.Service.profile in
    p = Ras_workload.Service.Presto_batch || p = Ras_workload.Service.Presto_interactive
  in
  let data_dc_of (r : Capacity_request.t) =
    match r.Capacity_request.service.Ras_workload.Service.profile with
    | Ras_workload.Service.Presto_batch -> 0
    | _ -> 1
  in
  let with_affinity (r : Capacity_request.t) =
    if is_presto r then
      { r with Capacity_request.dc_affinity = [ (data_dc_of r, 0.85) ];
        affinity_tolerance = 0.1 }
    else r
  in
  let sys = Scenarios.system broker in
  List.iter (fun r -> Ras.System.add_request sys (strip r)) requests;
  let weeks = Scenarios.scaled 8 in
  for week = 0 to weeks - 1 do
    (* affinity constraints are enabled at the start of week 2 *)
    if week = 2 then List.iter (fun r -> Ras.System.resize_request sys (with_affinity r)) requests;
    ignore (Ras.System.solve_now sys);
    let snapshot = Ras.System.snapshot sys in
    let line =
      List.filter_map
        (fun (r : Capacity_request.t) ->
          if not (is_presto r) then None
          else begin
            let res =
              List.find
                (fun res -> res.Ras.Reservation.id = r.Capacity_request.id)
                (Ras.System.reservations sys)
            in
            (* measure against the data DC regardless of declared affinity *)
            let frac =
              Traffic.cross_dc_working_fraction ~data_dc:(data_dc_of r)
                ~capacity_per_dc:(Ras.Snapshot.rru_by_dc snapshot res)
                ~requested:res.Ras.Reservation.capacity_rru
            in
            Some (Printf.sprintf "%s %.0f%%" res.Ras.Reservation.name (Report.pct frac))
          end)
        requests
    in
    Report.row "week %d%s: %s\n" (week + 1)
      (if week = 2 - 1 then " (affinity off->on next week)" else "")
      (String.concat ", " line)
  done
