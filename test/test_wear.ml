(* Tests for the §5.2 IO/wear-aware placement extension. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Wear = Ras_workload.Wear

let region () = Generator.generate Generator.small_params

let test_wear_generation_bounds () =
  let r = region () in
  let wear = Wear.generate (Ras_stats.Rng.create 3) r in
  Array.iter
    (fun (s : Region.server) ->
      let w = Wear.fraction wear s.Region.id in
      Alcotest.(check bool) "wear in [0,1]" true (w >= 0.0 && w <= 1.0);
      if not (Wear.has_flash s) then
        Alcotest.(check (float 1e-9)) "no flash, no wear" 0.0 w)
    r.Region.servers

let test_wear_buckets () =
  let r = region () in
  let wear = Wear.generate (Ras_stats.Rng.create 3) r in
  Array.iter
    (fun (s : Region.server) ->
      let w = Wear.fraction wear s.Region.id in
      Alcotest.(check int) "bucket thresholds"
        (if w < 0.4 then 0 else if w < 0.75 then 1 else 2)
        (Wear.bucket wear s.Region.id))
    r.Region.servers;
  Alcotest.(check int) "out of range is fresh" 0 (Wear.bucket wear (Region.num_servers r))

let test_wear_age_skew () =
  let r = region () in
  let wear = Wear.generate (Ras_stats.Rng.create 3) r in
  (* average flash wear in the oldest MSB exceeds the newest *)
  let mean_for msb =
    let total = ref 0.0 and n = ref 0 in
    Array.iter
      (fun (s : Region.server) ->
        if s.Region.loc.Region.msb = msb && Wear.has_flash s then begin
          total := !total +. Wear.fraction wear s.Region.id;
          incr n
        end)
      r.Region.servers;
    if !n = 0 then nan else !total /. float_of_int !n
  in
  let old_w = mean_for 0 and new_w = mean_for (r.Region.num_msbs - 1) in
  if (not (Float.is_nan old_w)) && not (Float.is_nan new_w) then
    Alcotest.(check bool) "older MSBs carry more wear" true (old_w >= new_w)

let test_attr_splits_classes () =
  let r = region () in
  let broker = Broker.create r in
  let plain = Snapshot.take broker [] in
  let attributed = Snapshot.take ~attr_of:(fun id -> id mod 2) broker [] in
  let plain_classes = Symmetry.num_classes (Symmetry.build plain) in
  let attr_classes = Symmetry.num_classes (Symmetry.build attributed) in
  Alcotest.(check bool) "attribute breaks symmetry" true (attr_classes > plain_classes)

let test_wear_objective_prefers_fresh_flash () =
  let r = region () in
  let broker = Broker.create r in
  let wear = Wear.generate (Ras_stats.Rng.create 7) r in
  let cache = Service.make ~id:1 ~name:"io-heavy" ~profile:Service.Cache () in
  let run ~io =
    (* fresh broker each run *)
    let broker = Broker.create r in
    let req =
      Capacity_request.make ~id:1 ~service:cache ~rru:6.0 ~embedded_buffer:false
        ~msb_spread_limit:0.5 ~io_intensity:io ()
    in
    let reservations = [ Reservation.of_request req ] in
    let snapshot = Snapshot.take ~attr_of:(Wear.bucket wear) broker reservations in
    let params = { Async_solver.default_params with Async_solver.node_limit = 0 } in
    let stats = Async_solver.solve ~params snapshot in
    let mover = Online_mover.create broker in
    Online_mover.set_reservations mover reservations;
    ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
    let total = ref 0.0 and n = ref 0 in
    List.iter
      (fun id ->
        if Wear.has_flash (Broker.region broker).Region.servers.(id) then begin
          total := !total +. Wear.fraction wear id;
          incr n
        end)
      (Broker.servers_with_owner broker (Broker.Reservation 1));
    if !n = 0 then nan else !total /. float_of_int !n
  in
  ignore broker;
  let aware = run ~io:1.0 and blind = run ~io:0.0 in
  if (not (Float.is_nan aware)) && not (Float.is_nan blind) then
    Alcotest.(check bool)
      (Printf.sprintf "aware %.2f <= blind %.2f" aware blind)
      true (aware <= blind +. 1e-9)

let suite =
  [
    Alcotest.test_case "wear generation bounds" `Quick test_wear_generation_bounds;
    Alcotest.test_case "wear buckets" `Quick test_wear_buckets;
    Alcotest.test_case "wear age skew" `Quick test_wear_age_skew;
    Alcotest.test_case "attr splits classes" `Quick test_attr_splits_classes;
    Alcotest.test_case "wear objective prefers fresh flash" `Slow
      test_wear_objective_prefers_fresh_flash;
  ]
