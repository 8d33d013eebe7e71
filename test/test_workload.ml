(* Tests for ras_workload: service catalog, RRU valuation, request
   generation, power and traffic models. *)

module Hw = Ras_topology.Hardware
module Region = Ras_topology.Region
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Request_gen = Ras_workload.Request_gen
module Power = Ras_workload.Power
module Traffic = Ras_workload.Traffic

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()

let test_relative_value_table () =
  Alcotest.(check (float 1e-9)) "web gen1" 1.0 (Service.relative_value Service.Web 1);
  Alcotest.(check (float 1e-9)) "web gen2" 1.47 (Service.relative_value Service.Web 2);
  Alcotest.(check (float 1e-9)) "web gen3" 1.82 (Service.relative_value Service.Web 3);
  Alcotest.(check (float 1e-9)) "datastore flat" 1.0 (Service.relative_value Service.Data_store 3)

let test_relative_value_clamps () =
  Alcotest.(check (float 1e-9)) "gen 0 clamps to 1" 1.0 (Service.relative_value Service.Web 0);
  Alcotest.(check (float 1e-9)) "gen 9 clamps to 3" 1.82 (Service.relative_value Service.Web 9)

let test_rru_of_respects_acceptability () =
  let storage_hw = Option.get (Hw.find_by_code "C4-S1") in
  Alcotest.(check (float 1e-9)) "web rejects storage" 0.0 (Service.rru_of web storage_hw);
  let c3 = Option.get (Hw.find_by_code "C3") in
  Alcotest.(check bool) "web values compute" true (Service.rru_of web c3 > 0.0)

let test_rru_of_generation_scaling () =
  let c1 = Option.get (Hw.find_by_code "C1") in
  let c3 = Option.get (Hw.find_by_code "C3") in
  let v1 = Service.rru_of web c1 and v3 = Service.rru_of web c3 in
  (* C3 has more cores AND a generation bonus *)
  Alcotest.(check bool) "gen3 compute worth more to web" true (v3 > v1 *. 1.8)

let test_generation_pinning () =
  let pinned = Service.make ~id:2 ~name:"new-only" ~profile:Service.Web ~min_generation:2 () in
  let c1 = Option.get (Hw.find_by_code "C1") in
  Alcotest.(check (float 1e-9)) "gen1 unacceptable" 0.0 (Service.rru_of pinned c1);
  let legacy = Service.make ~id:3 ~name:"old-only" ~profile:Service.Web ~max_generation:1 () in
  let c3 = Option.get (Hw.find_by_code "C3") in
  Alcotest.(check (float 1e-9)) "gen3 unacceptable to legacy" 0.0 (Service.rru_of legacy c3)

let test_default_catalog_shape () =
  Alcotest.(check int) "thirty services" 30 (List.length Service.default_catalog);
  let ids = List.map (fun s -> s.Service.id) Service.default_catalog in
  Alcotest.(check int) "ids unique" 30 (List.length (List.sort_uniq compare ids))

let test_capacity_request_validation () =
  List.iter
    (fun (label, rru) ->
      Alcotest.check_raises label
        (Invalid_argument "Capacity_request.make: rru must be finite and positive") (fun () ->
          ignore (Capacity_request.make ~id:1 ~service:web ~rru ())))
    [ ("zero rru", 0.0); ("negative rru", -1.0); ("nan rru", Float.nan);
      ("infinite rru", Float.infinity) ]

let test_acceptable_hw_types () =
  let req = Capacity_request.make ~id:1 ~service:web ~rru:10.0 () in
  let n = Capacity_request.acceptable_hw_types req in
  Alcotest.(check bool) "web accepts several compute types" true (n >= 4 && n <= 8)

let test_paper_distribution_ranges () =
  let rng = Ras_stats.Rng.create 4 in
  let samples = Request_gen.paper_distribution rng ~n:2000 in
  List.iter
    (fun (s : Request_gen.sized_request) ->
      Alcotest.(check bool) "units in [1, 30000]" true
        (s.Request_gen.units >= 1.0 && s.Request_gen.units <= 30000.0);
      Alcotest.(check bool) "hw types in [1, 12]" true
        (s.Request_gen.hw_types >= 1 && s.Request_gen.hw_types <= 12))
    samples;
  (* bimodal flexibility: 1 and 8 are the two most common *)
  let counts = Array.make 12 0 in
  List.iter
    (fun (s : Request_gen.sized_request) ->
      counts.(s.Request_gen.hw_types - 1) <- counts.(s.Request_gen.hw_types - 1) + 1)
    samples;
  let sorted = Array.to_list (Array.mapi (fun i c -> (c, i + 1)) counts) in
  let top2 = List.sort (fun a b -> compare b a) sorted |> fun l -> List.filteri (fun i _ -> i < 2) l in
  let top_types = List.map snd top2 |> List.sort compare in
  Alcotest.(check (list int)) "modes at 1 and 8" [ 1; 8 ] top_types

let small_region () = Ras_topology.Generator.generate Ras_topology.Generator.small_params

let test_scenario_feasible_sizing () =
  let region = small_region () in
  let rng = Ras_stats.Rng.create 7 in
  let requests =
    Request_gen.scenario rng ~region ~services:Service.default_catalog ~target_utilization:0.5
  in
  Alcotest.(check bool) "some requests" true (List.length requests > 5);
  (* total demand per service must not exceed what the region could supply
     exclusively to that service *)
  List.iter
    (fun (r : Capacity_request.t) ->
      let supply =
        Array.fold_left
          (fun acc (s : Region.server) -> acc +. Service.rru_of r.Capacity_request.service s.Region.hw)
          0.0 region.Region.servers
      in
      Alcotest.(check bool) "demand below exclusive supply" true (r.Capacity_request.rru <= supply))
    requests

let test_scenario_small_requests_skip_buffer () =
  let region = small_region () in
  let rng = Ras_stats.Rng.create 7 in
  let requests =
    Request_gen.scenario rng ~region ~services:Service.default_catalog ~target_utilization:0.5
  in
  List.iter
    (fun (r : Capacity_request.t) ->
      if r.Capacity_request.rru < 10.0 then
        Alcotest.(check bool) "small request has no embedded buffer" false
          r.Capacity_request.embedded_buffer)
    requests

let test_arrivals_sorted_diurnal () =
  let rng = Ras_stats.Rng.create 9 in
  let arrivals = Request_gen.arrivals_over rng ~days:14 ~mean_per_workday:10.0 in
  let sorted = List.sort compare arrivals in
  Alcotest.(check bool) "sorted" true (arrivals = sorted);
  List.iter
    (fun t -> Alcotest.(check bool) "within horizon" true (t >= 0.0 && t < 14.0 *. 24.0))
    arrivals;
  (* weekday hours cluster in working hours *)
  let weekday_count = ref 0 and weekend_count = ref 0 in
  List.iter
    (fun t ->
      let day = int_of_float (t /. 24.0) mod 7 in
      if day < 5 then incr weekday_count else incr weekend_count)
    arrivals;
  Alcotest.(check bool) "weekdays dominate" true (!weekday_count > !weekend_count * 3)

let test_power_draw_ordering () =
  let hw = Hw.catalog.(0) in
  let idle = Power.draw_watts hw Power.Idle_free in
  let assigned = Power.draw_watts hw Power.Assigned_idle in
  let busy = Power.draw_watts hw Power.Assigned_busy in
  Alcotest.(check bool) "idle < assigned < busy" true (idle < assigned && assigned < busy);
  Alcotest.(check bool) "busy below nameplate" true (busy <= hw.Hw.power_watts)

let test_power_variance_uniform_zero () =
  Alcotest.(check (float 1e-12)) "uniform variance" 0.0
    (Power.normalized_variance [| 5.0; 5.0; 5.0 |]);
  Alcotest.(check bool) "imbalance positive" true
    (Power.normalized_variance [| 1.0; 9.0 |] > 0.0)

let test_power_headroom () =
  let h = Power.headroom ~capacity_watts:[| 100.0; 100.0 |] ~draw_watts:[| 50.0; 90.0 |] in
  Alcotest.(check (float 1e-9)) "min headroom" 0.1 h

let test_msb_power_totals () =
  let region = small_region () in
  let draw = Power.msb_power region ~usage_of:(fun _ -> Power.Assigned_busy) in
  Alcotest.(check int) "per-msb entries" region.Region.num_msbs (Array.length draw);
  Array.iter (fun w -> Alcotest.(check bool) "positive draw" true (w > 0.0)) draw

let test_traffic_fractions () =
  Alcotest.(check (float 1e-9)) "all local" 0.0
    (Traffic.cross_dc_fraction ~data_dc:0 ~capacity_per_dc:[| 10.0; 0.0 |]);
  Alcotest.(check (float 1e-9)) "half remote" 0.5
    (Traffic.cross_dc_fraction ~data_dc:0 ~capacity_per_dc:[| 5.0; 5.0 |]);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Traffic.cross_dc_fraction ~data_dc:0 ~capacity_per_dc:[| 0.0; 0.0 |]))

let test_traffic_working_fraction () =
  (* 10 requested, 10 local, 5 extra buffer elsewhere: working set is local *)
  Alcotest.(check (float 1e-9)) "buffer not counted" 0.0
    (Traffic.cross_dc_working_fraction ~data_dc:0 ~capacity_per_dc:[| 10.0; 5.0 |] ~requested:10.0);
  Alcotest.(check (float 1e-9)) "half the working set remote" 0.5
    (Traffic.cross_dc_working_fraction ~data_dc:0 ~capacity_per_dc:[| 5.0; 5.0 |] ~requested:10.0)

let suite =
  [
    Alcotest.test_case "relative value table" `Quick test_relative_value_table;
    Alcotest.test_case "relative value clamps" `Quick test_relative_value_clamps;
    Alcotest.test_case "rru_of acceptability" `Quick test_rru_of_respects_acceptability;
    Alcotest.test_case "rru_of generation scaling" `Quick test_rru_of_generation_scaling;
    Alcotest.test_case "generation pinning" `Quick test_generation_pinning;
    Alcotest.test_case "default catalog shape" `Quick test_default_catalog_shape;
    Alcotest.test_case "capacity request validation" `Quick test_capacity_request_validation;
    Alcotest.test_case "acceptable hw types" `Quick test_acceptable_hw_types;
    Alcotest.test_case "paper distribution ranges" `Quick test_paper_distribution_ranges;
    Alcotest.test_case "scenario feasible sizing" `Quick test_scenario_feasible_sizing;
    Alcotest.test_case "small requests skip buffer" `Quick test_scenario_small_requests_skip_buffer;
    Alcotest.test_case "arrivals sorted diurnal" `Quick test_arrivals_sorted_diurnal;
    Alcotest.test_case "power draw ordering" `Quick test_power_draw_ordering;
    Alcotest.test_case "power variance" `Quick test_power_variance_uniform_zero;
    Alcotest.test_case "power headroom" `Quick test_power_headroom;
    Alcotest.test_case "msb power totals" `Quick test_msb_power_totals;
    Alcotest.test_case "traffic fractions" `Quick test_traffic_fractions;
    Alcotest.test_case "traffic working fraction" `Quick test_traffic_working_fraction;
  ]
