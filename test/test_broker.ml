(* Tests for ras_broker: ownership, targets, unavailability subscriptions
   and region extension. *)

module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Unavail = Ras_failures.Unavail

let broker () = Broker.create (Generator.generate Generator.small_params)

let test_initial_state () =
  let b = broker () in
  Alcotest.(check int) "all free" (Broker.num_servers b) (Broker.count_owner b Broker.Free);
  Alcotest.(check bool) "healthy" true (Broker.healthy_at b 0);
  Alcotest.(check bool) "available" true (Broker.available_at b 0);
  Alcotest.(check bool) "target free" true
    (Broker.target_code b 0 = Broker.owner_code Broker.Free)

(* every id-taking column accessor checks the id *)
let test_record_bounds () =
  let b = broker () in
  let raises name read =
    List.iter
      (fun id ->
        Alcotest.check_raises "unknown id"
          (Invalid_argument (Printf.sprintf "Broker.%s: unknown server %d" name id))
          (fun () -> ignore (read b id)))
      [ -1; Broker.num_servers b ]
  in
  raises "current_code" Broker.current_code;
  raises "current_code" Broker.current_owner;
  raises "target_code" Broker.target_code;
  raises "in_use_at" Broker.in_use_at;
  raises "down_code" Broker.available_at;
  raises "down_code" Broker.healthy_at

let test_move_resets_in_use () =
  let b = broker () in
  Broker.move b 0 (Broker.Reservation 1);
  Broker.set_in_use b 0 true;
  Broker.move b 0 (Broker.Reservation 1);
  Alcotest.(check bool) "same owner keeps in_use" true (Broker.in_use_at b 0);
  Broker.move b 0 (Broker.Reservation 2);
  Alcotest.(check bool) "owner change preempts" false (Broker.in_use_at b 0)

let test_owner_queries () =
  let b = broker () in
  Broker.move b 3 Broker.Shared_buffer;
  Broker.move b 5 Broker.Shared_buffer;
  Alcotest.(check (list int)) "servers_with_owner" [ 3; 5 ]
    (Broker.servers_with_owner b Broker.Shared_buffer);
  Alcotest.(check int) "count_owner" 2 (Broker.count_owner b Broker.Shared_buffer)

let test_availability_semantics () =
  let b = broker () in
  Broker.mark_down b 0 Unavail.Planned_maintenance;
  Alcotest.(check bool) "planned is available" true (Broker.available_at b 0);
  Alcotest.(check bool) "planned is not healthy" false (Broker.healthy_at b 0);
  Broker.mark_down b 0 Unavail.Correlated;
  Alcotest.(check bool) "correlated is unavailable" false (Broker.available_at b 0);
  Broker.mark_up b 0;
  Alcotest.(check bool) "healthy again" true (Broker.healthy_at b 0)

let test_subscription_events () =
  let b = broker () in
  let log = ref [] in
  Broker.subscribe b (fun e -> log := e :: !log);
  Broker.mark_down b 2 Unavail.Unplanned_sw;
  Broker.mark_down b 2 Unavail.Unplanned_sw;
  (* idempotent *)
  Broker.mark_up b 2;
  Broker.mark_up b 2;
  match List.rev !log with
  | [ Broker.Went_down (2, Unavail.Unplanned_sw); Broker.Came_up 2 ] -> ()
  | l -> Alcotest.failf "unexpected events (%d)" (List.length l)

let test_subscriber_order () =
  let b = broker () in
  let order = ref [] in
  Broker.subscribe b (fun _ -> order := 1 :: !order);
  Broker.subscribe b (fun _ -> order := 2 :: !order);
  Broker.mark_down b 1 Unavail.Unplanned_hw;
  Alcotest.(check (list int)) "subscription order" [ 1; 2 ] (List.rev !order)

let test_extend_region () =
  let region = Generator.generate Generator.small_params in
  let b = Broker.create region in
  Broker.move b 0 (Broker.Reservation 7);
  let bigger = Generator.extend region ~new_msbs_per_dc:1 ~racks_per_msb:2 ~servers_per_rack:3 ~seed:9 in
  Broker.extend_region b bigger;
  Alcotest.(check int) "more servers" (Region.num_servers bigger) (Broker.num_servers b);
  Alcotest.(check bool) "old state kept" true
    (Broker.current_owner b 0 = Broker.Reservation 7);
  Alcotest.(check bool) "new servers free" true
    (Broker.current_owner b (Region.num_servers region) = Broker.Free)

let test_extend_rejects_shrink () =
  let region = Generator.generate Generator.small_params in
  let b = Broker.create region in
  let tiny = Generator.generate { Generator.small_params with Generator.num_dcs = 1 } in
  Alcotest.check_raises "shrink rejected"
    (Invalid_argument "Broker.extend_region: new region is smaller") (fun () ->
      Broker.extend_region b tiny)

(* The stale set against a scan of both owner columns, after every write
   of a seeded churn long enough to fill and compact the log many times:
   moves (loans among them), target writes, and a region extension. *)
let test_stale_servers_match_scan () =
  let region = Generator.generate Generator.small_params in
  let b = Broker.create region in
  let rng = Ras_stats.Rng.create 3 in
  let owner () =
    match Ras_stats.Rng.int rng 4 with
    | 0 -> Broker.Free
    | 1 -> Broker.Shared_buffer
    | 2 -> Broker.Elastic (Ras_stats.Rng.int rng 2)
    | _ -> Broker.Reservation (Ras_stats.Rng.int rng 3)
  in
  let home id =
    let c = Broker.current_code b id in
    if Broker.is_elastic_code c then Broker.owner_code Broker.Shared_buffer else c
  in
  let scan () =
    List.filter
      (fun id -> Broker.target_code b id <> home id)
      (List.init (Broker.num_servers b) Fun.id)
  in
  let most = ref 0 in
  for step = 1 to 4000 do
    if step = 2000 then
      Broker.extend_region b
        (Generator.extend region ~new_msbs_per_dc:1 ~racks_per_msb:2 ~servers_per_rack:3 ~seed:9);
    let id = Ras_stats.Rng.int rng (Broker.num_servers b) in
    (match Ras_stats.Rng.int rng 2 with
    | 0 -> Broker.move b id (owner ())
    | _ ->
      (* targets are never loans *)
      let rec target () = match owner () with Broker.Elastic _ -> target () | o -> o in
      Broker.set_target b id (target ()));
    if step mod 97 = 0 || step > 3900 then begin
      let want = scan () in
      most := max !most (List.length want);
      Alcotest.(check (list int)) (Printf.sprintf "step %d" step) want
        (List.sort compare (Broker.stale_servers b))
    end
  done;
  Alcotest.(check bool) (Printf.sprintf "the log overflowed (%d stale)" !most) true (!most > 64)

let suite =
  [
    Alcotest.test_case "stale servers match a scan" `Quick test_stale_servers_match_scan;
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "record bounds" `Quick test_record_bounds;
    Alcotest.test_case "move resets in_use" `Quick test_move_resets_in_use;
    Alcotest.test_case "owner queries" `Quick test_owner_queries;
    Alcotest.test_case "availability semantics" `Quick test_availability_semantics;
    Alcotest.test_case "subscription events" `Quick test_subscription_events;
    Alcotest.test_case "subscriber order" `Quick test_subscriber_order;
    Alcotest.test_case "extend region" `Quick test_extend_region;
    Alcotest.test_case "extend rejects shrink" `Quick test_extend_rejects_shrink;
  ]
