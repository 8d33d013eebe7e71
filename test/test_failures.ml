(* Tests for ras_failures: event scoping, schedule generation and the
   unavailability accounting that backs Fig. 5. *)

module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Unavail = Ras_failures.Unavail
module Failure_model = Ras_failures.Failure_model

let region () = Generator.generate Generator.small_params

let test_event_activity_window () =
  let e = { Unavail.id = 0; scope = Unavail.Server 0; kind = Unavail.Unplanned_sw; start_h = 2.0; duration_h = 3.0 } in
  Alcotest.(check bool) "before" false (Unavail.active_at e 1.9);
  Alcotest.(check bool) "at start" true (Unavail.active_at e 2.0);
  Alcotest.(check bool) "inside" true (Unavail.active_at e 4.9);
  Alcotest.(check bool) "at end (exclusive)" false (Unavail.active_at e 5.0);
  Alcotest.(check (float 1e-9)) "end_h" 5.0 (Unavail.end_h e)

let test_servers_of_scopes () =
  let r = region () in
  let server_event = { Unavail.id = 0; scope = Unavail.Server 3; kind = Unavail.Unplanned_hw; start_h = 0.0; duration_h = 1.0 } in
  Alcotest.(check (list int)) "server scope" [ 3 ] (Unavail.servers_of r server_event);
  let rack_event = { server_event with Unavail.scope = Unavail.Rack 0 } in
  Alcotest.(check int) "rack scope covers the rack" 6 (List.length (Unavail.servers_of r rack_event));
  let msb_event = { server_event with Unavail.scope = Unavail.Msb 0 } in
  Alcotest.(check int) "msb scope covers the msb" 24 (List.length (Unavail.servers_of r msb_event));
  let bogus = { server_event with Unavail.scope = Unavail.Server 9999 } in
  Alcotest.(check (list int)) "unknown server empty" [] (Unavail.servers_of r bogus)

let test_generate_sorted_and_in_horizon () =
  let r = region () in
  let rng = Ras_stats.Rng.create 5 in
  let events = Failure_model.generate rng r Failure_model.default_params ~horizon_days:7.0 in
  Alcotest.(check bool) "non-empty" true (events <> []);
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "sorted by start" true (a.Unavail.start_h <= b.Unavail.start_h);
      check_sorted rest
    | _ -> ()
  in
  check_sorted events;
  List.iter
    (fun e -> Alcotest.(check bool) "starts within horizon" true (e.Unavail.start_h < 7.0 *. 24.0))
    events

let test_calm_params_no_unplanned () =
  let r = region () in
  let rng = Ras_stats.Rng.create 5 in
  let events = Failure_model.generate rng r Failure_model.calm_params ~horizon_days:7.0 in
  List.iter
    (fun e ->
      Alcotest.(check bool) "only planned" true (e.Unavail.kind = Unavail.Planned_maintenance))
    events

let test_maintenance_covers_all_msbs () =
  let r = region () in
  let rng = Ras_stats.Rng.create 5 in
  let events = Failure_model.generate rng r Failure_model.calm_params ~horizon_days:28.0 in
  (* every MSB must see at least one maintenance rack batch per cycle *)
  let touched = Array.make r.Region.num_msbs false in
  List.iter
    (fun e ->
      match e.Unavail.scope with
      | Unavail.Rack rack -> touched.(r.Region.rack_msb.(rack)) <- true
      | Unavail.Server _ | Unavail.Msb _ -> ())
    events;
  Array.iteri
    (fun m t -> Alcotest.(check bool) (Printf.sprintf "msb %d maintained" m) true t)
    touched

let test_maintenance_concurrency_limit () =
  let r = region () in
  let rng = Ras_stats.Rng.create 5 in
  let events = Failure_model.generate rng r Failure_model.calm_params ~horizon_days:14.0 in
  (* at any sampled hour, no MSB has more than ~25% of its racks (rounded up
     to one batch) under maintenance *)
  let racks_per_msb = r.Region.num_racks / r.Region.num_msbs in
  let batch = max 1 ((racks_per_msb + 3) / 4) in
  for hour = 0 to (14 * 24) - 1 do
    let t = float_of_int hour +. 0.5 in
    let down_racks = Array.make r.Region.num_msbs 0 in
    List.iter
      (fun e ->
        match e.Unavail.scope with
        | Unavail.Rack rack when Unavail.active_at e t ->
          down_racks.(r.Region.rack_msb.(rack)) <- down_racks.(r.Region.rack_msb.(rack)) + 1
        | Unavail.Rack _ | Unavail.Server _ | Unavail.Msb _ -> ())
      events;
    Array.iter
      (fun d -> Alcotest.(check bool) "concurrency <= one batch" true (d <= batch))
      down_racks
  done

let test_unavailable_fraction_bounds () =
  let r = region () in
  let rng = Ras_stats.Rng.create 6 in
  let events = Failure_model.generate rng r Failure_model.default_params ~horizon_days:7.0 in
  let kinds = [ Unavail.Planned_maintenance; Unavail.Unplanned_sw; Unavail.Unplanned_hw; Unavail.Correlated ] in
  Array.iter
    (fun (_, f) -> Alcotest.(check bool) "fraction in [0,1]" true (f >= 0.0 && f <= 1.0))
    (Failure_model.series r events ~horizon_days:7.0 ~window_h:8.0 ~kinds)

let test_series_shape () =
  let r = region () in
  let rng = Ras_stats.Rng.create 6 in
  let events = Failure_model.generate rng r Failure_model.default_params ~horizon_days:2.0 in
  let s = Failure_model.series r events ~horizon_days:2.0 ~window_h:1.0 ~kinds:[ Unavail.Planned_maintenance ] in
  Alcotest.(check int) "48 windows" 48 (Array.length s)

let test_overlapping_events_count_once () =
  let r = region () in
  let mk id scope = { Unavail.id; scope; kind = Unavail.Unplanned_sw; start_h = 0.0; duration_h = 5.0 } in
  let events = [ mk 0 (Unavail.Server 1); mk 1 (Unavail.Server 1); mk 2 (Unavail.Server 2) ] in
  (* the first one-hour window is sampled at t = 0.5 *)
  let series =
    Failure_model.series r events ~horizon_days:1.0 ~window_h:1.0 ~kinds:[ Unavail.Unplanned_sw ]
  in
  let f = snd series.(0) in
  Alcotest.(check (float 1e-9)) "two distinct servers down" (2.0 /. 144.0) f

let suite =
  [
    Alcotest.test_case "event activity window" `Quick test_event_activity_window;
    Alcotest.test_case "servers_of scopes" `Quick test_servers_of_scopes;
    Alcotest.test_case "generate sorted + horizon" `Quick test_generate_sorted_and_in_horizon;
    Alcotest.test_case "calm params only planned" `Quick test_calm_params_no_unplanned;
    Alcotest.test_case "maintenance covers all MSBs" `Quick test_maintenance_covers_all_msbs;
    Alcotest.test_case "maintenance concurrency" `Slow test_maintenance_concurrency_limit;
    Alcotest.test_case "unavailable fraction bounds" `Quick test_unavailable_fraction_bounds;
    Alcotest.test_case "series shape" `Quick test_series_shape;
    Alcotest.test_case "overlap counts once" `Quick test_overlapping_events_count_once;
  ]
