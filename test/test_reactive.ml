(* Tier-1 reactive repair battery.

   Pins, in order: the incremental availability index (free, buffer and the
   three lent pools) never drifts from a fresh rebuild under churn
   (including region growth); the emergency grant covers what the retained
   full-scan oracle covers, from the same sources, while visiting only the
   servers it takes; on seeded failure storms with loans outstanding, every
   replacement falls in the oracle's preference class (same subtype, buffer
   or lent, idle or in use); the price-guided picks respect the dual
   prices; the replace_failed swap leaves no double-counted capacity behind
   (checked through the Symmetry current-owner histograms); loan
   bookkeeping round-trips under double failures and equals the Elastic
   owners after churn; a replacement costs O(classes) however many loans
   are out; and the tier-2 objective drift caused by tier-1 repairs is
   bounded against oracle-repaired state.

   RAS_SCALE_TESTS=full adds the 10^6-server pins: per-event visited
   servers/classes bounded by class structure (not region size) and
   allocation-bounded emergency grants. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Hw = Ras_topology.Hardware
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Unavail = Ras_failures.Unavail
module Rng = Ras_stats.Rng

let full_scale () = Sys.getenv_opt "RAS_SCALE_TESTS" = Some "full"

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()

let reservation_of_rru ~id rru =
  Reservation.of_request (Capacity_request.make ~id ~service:web ~rru ())

(* Two structurally identical worlds: the differential tests run the same
   deterministic op sequence against both and compare outcomes. *)
let fresh_broker ?(params = Generator.small_params) () =
  Broker.create (Generator.generate params)

let check_index_matches_rebuild t =
  (* a freshly built index over the same broker is the ground truth the
     incremental one must agree with, bucket-for-bucket *)
  let fresh = Reactive.create (Reactive.broker t) in
  let region = Broker.region (Reactive.broker t) in
  for msb = 0 to region.Region.num_msbs - 1 do
    for hw = 0 to Hw.count - 1 do
      List.iter
        (fun source ->
          Alcotest.(check int)
            (Printf.sprintf "bucket m%d h%d" msb hw)
            (Reactive.available_in_bucket fresh ~source ~msb ~hw)
            (Reactive.available_in_bucket t ~source ~msb ~hw))
        [ `Free; `Buffer; `Lent_idle; `Lent_in_use; `Lent_down ]
    done
  done

let test_index_tracks_churn () =
  let broker = fresh_broker () in
  let t = Reactive.create broker in
  let n = Broker.num_servers broker in
  let rng = Rng.create 42 in
  for _ = 1 to 2000 do
    let id = Rng.int rng n in
    (match Rng.int rng 7 with
    | 0 -> Broker.move broker id Broker.Shared_buffer
    | 5 -> Broker.move broker id (Broker.Elastic 9000)
    | 1 -> Broker.move broker id Broker.Free
    | 2 -> Broker.move broker id (Broker.Reservation (1 + Rng.int rng 3))
    | 3 -> Broker.mark_down broker id Unavail.Unplanned_hw
    | 4 -> Broker.mark_up broker id
    | _ -> Broker.set_in_use broker id (Rng.int rng 2 = 0));
    ()
  done;
  check_index_matches_rebuild t;
  Alcotest.(check bool) "index absorbed updates" true
    ((Reactive.counters t).Reactive.index_updates > 0)

let test_index_survives_region_growth () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let t = Reactive.create broker in
  let before = Reactive.num_buckets t in
  let grown =
    Generator.extend region ~new_msbs_per_dc:1 ~racks_per_msb:2 ~servers_per_rack:2 ~seed:99
  in
  Broker.extend_region broker grown;
  Alcotest.(check bool) "bucket space grew with the region" true
    (Reactive.num_buckets t > before);
  check_index_matches_rebuild t;
  (* adopted servers arrive Free and healthy: they must be in the pools *)
  let total_free = ref 0 in
  let r = Broker.region broker in
  for msb = 0 to r.Region.num_msbs - 1 do
    for hw = 0 to Hw.count - 1 do
      total_free := !total_free + Reactive.available_in_bucket t ~source:`Free ~msb ~hw
    done
  done;
  Alcotest.(check int) "every free healthy server indexed" (Broker.count_owner broker Broker.Free)
    !total_free

(* ---------- emergency grant: index vs full-scan oracle ---------- *)

(* Run the same pre-grant damage on both brokers so their columns agree. *)
let seed_buffer_and_damage broker =
  let n = Broker.num_servers broker in
  let rng = Rng.create 7 in
  for _ = 1 to n / 4 do
    Broker.move broker (Rng.int rng n) Broker.Shared_buffer
  done;
  for _ = 1 to n / 10 do
    Broker.mark_down broker (Rng.int rng n) Unavail.Unplanned_sw
  done;
  for _ = 1 to n / 10 do
    Broker.set_in_use broker (Rng.int rng n) true
  done

let test_grant_matches_oracle () =
  (* the index drains buckets by price where the oracle walks ids, so the
     served sets differ; what must agree is what the supply allows: both
     cover the request or both take everything, and both dip into the
     buffer only when the free pool falls short *)
  List.iter
    (fun (allow_buffer, rru) ->
      let a = fresh_broker () and b = fresh_broker () in
      seed_buffer_and_damage a;
      seed_buffer_and_damage b;
      let res = reservation_of_rru ~id:1 rru in
      let eligible id =
        Broker.healthy_at a id
        && (not (Broker.in_use_at a id))
        && res.Reservation.rru_of (Broker.region a).Region.servers.(id).Region.hw > 0.0
        &&
        match Broker.current_owner a id with
        | Broker.Free -> true
        | Broker.Shared_buffer -> allow_buffer
        | Broker.Reservation _ | Broker.Elastic _ -> false
      in
      let eligible_before = List.filter eligible (List.init (Broker.num_servers a) Fun.id) in
      let g = Reactive.grant (Reactive.create a) ~reservation:res ~rru ~allow_buffer in
      let o = Oracles.grant_reference b ~reservation:res ~rru ~allow_buffer in
      let label = Printf.sprintf "allow_buffer=%b rru=%.0f" allow_buffer rru in
      Alcotest.(check bool) (label ^ ": same coverage") (o.Reactive.granted_rru >= rru)
        (g.Reactive.granted_rru >= rru);
      if o.Reactive.granted_rru < rru then
        Alcotest.(check (float 1e-9)) (label ^ ": both drained the supply")
          o.Reactive.granted_rru g.Reactive.granted_rru;
      Alcotest.(check bool) (label ^ ": same buffer dip") (o.Reactive.took_from_buffer > 0)
        (g.Reactive.took_from_buffer > 0);
      List.iter
        (fun id ->
          Alcotest.(check bool) (Printf.sprintf "%s: server %d was eligible" label id) true
            (List.mem id eligible_before))
        g.Reactive.servers;
      Alcotest.(check bool) (label ^ ": index visits no more than the oracle") true
        (g.Reactive.visited <= o.Reactive.visited))
    [ (false, 6.0); (true, 6.0); (false, 1e4); (true, 1e4) ]

let test_grant_terminates_early () =
  let broker = fresh_broker () in
  let index = Reactive.create broker in
  let res = reservation_of_rru ~id:1 2.0 in
  let n = Broker.num_servers broker in
  let alloc0 = Gc.allocated_bytes () in
  let g = Reactive.grant index ~reservation:res ~rru:2.0 ~allow_buffer:false in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  Alcotest.(check bool) "covered" true (g.Reactive.granted_rru >= 2.0);
  (* the whole free pool is acceptable compute-heavy supply, so coverage
     must come from a few servers — not a full scan *)
  Alcotest.(check bool)
    (Printf.sprintf "early termination (visited %d of %d)" g.Reactive.visited n)
    true
    (g.Reactive.visited < n);
  (* the grant materializes no records: allocation is O(classes + grant),
     not O(region) — a generous fixed budget catches an O(n) record build *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation bounded (%.0f bytes)" alloc)
    true (alloc < 64_000.0)

(* ---------- replacement search: index vs oracle on storms ---------- *)

(* The preference class the reference score ranks first, without its id
   tie-break: (same subtype, lent, in use).  The index may pick another
   server than the scan, never one from another class. *)
let replacement_class broker ~failed_hw id =
  ( (Broker.region broker).Region.servers.(id).Region.hw.Hw.index = failed_hw,
    Broker.is_elastic_code (Broker.current_code broker id),
    Broker.in_use_at broker id )

let check_same_class broker res ~failed_hw fast =
  match (Oracles.find_replacement_reference broker res ~failed_hw, fast) with
  | None, None -> None
  | Some r, Some f ->
    let cls = replacement_class broker ~failed_hw r in
    Alcotest.(check (triple bool bool bool)) "same preference class" cls
      (replacement_class broker ~failed_hw f);
    Some cls
  | Some _, None -> Alcotest.fail "the index found nothing where the oracle found a server"
  | None, Some _ -> Alcotest.fail "the index found a server the oracle could not"

(* Bound compute to the reservation and park more in the buffer, then lend
   part of the buffer out and put some of the loans to work. *)
let storm_world () =
  let broker = fresh_broker () in
  let res = reservation_of_rru ~id:1 10.0 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  let bound = ref [] in
  let count_res = ref 0 and count_buf = ref 0 in
  Broker.iter broker ~f:(fun r ->
      if res.Reservation.rru_of r.Broker.server.Region.hw > 0.0 then begin
        let id = r.Broker.server.Region.id in
        if !count_res < 20 then begin
          Broker.move broker id (Broker.Reservation 1);
          bound := id :: !bound;
          incr count_res
        end
        else if !count_buf < 16 then begin
          Broker.move broker id Broker.Shared_buffer;
          incr count_buf
        end
      end);
  let lent = Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:10 in
  Alcotest.(check int) "loans out" 10 lent;
  List.iteri
    (fun i id -> if i mod 3 = 0 then Broker.set_in_use broker id true)
    (Reactive.lent_servers (Online_mover.reactive mover) |> List.sort compare);
  (broker, res, mover, List.rev !bound)

let test_replacement_matches_oracle_on_storm () =
  let broker, res, mover, bound = storm_world () in
  let n = Broker.num_servers broker in
  let rng = Rng.create 13 in
  let region = Broker.region broker in
  let down = ref [] and lent_picks = ref 0 and busy_picks = ref 0 in
  List.iter
    (fun victim ->
      if Broker.healthy_at broker victim then begin
        let failed_hw = region.Region.servers.(victim).Region.hw.Hw.index in
        (* class equality BEFORE the state advances... *)
        (match check_same_class broker res ~failed_hw (Online_mover.find_replacement mover res ~failed_hw) with
        | Some (_, lent, busy) ->
          if lent then incr lent_picks;
          if busy then incr busy_picks
        | None -> ());
        (* ...then advance it: fail the victim, let the mover repair *)
        Broker.mark_down broker victim Unavail.Unplanned_hw;
        down := victim :: !down;
        (* churn between events: in-use flips, heals, fresh loans *)
        match Rng.int rng 4 with
        | 0 -> Broker.set_in_use broker (Rng.int rng n) (Rng.int rng 2 = 0)
        | 1 -> (
          match !down with
          | healed :: rest ->
            Broker.mark_up broker healed;
            down := rest
          | [] -> ())
        | 2 -> ignore (Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:1)
        | _ -> ()
      end)
    bound;
  Alcotest.(check bool) "storm produced replacements" true
    (Online_mover.replacements_done mover > 0);
  Alcotest.(check bool)
    (Printf.sprintf "storm reclaimed loans (%d, %d in use)" !lent_picks !busy_picks)
    true (!lent_picks > 0 && !busy_picks > 0)

let test_reactive_replacement_same_class () =
  (* with dual prices installed the index's tie-break inside a class is the
     cheapest bucket, not the lowest id: the class must still match *)
  let broker, res, mover, bound = storm_world () in
  let region = Broker.region broker in
  let rng = Rng.create 5 in
  let row_names =
    Array.init (region.Region.num_msbs * Hw.count) (fun b ->
        Printf.sprintf "supply_m%dh%du0a0" (b / Hw.count) (b mod Hw.count))
  in
  let duals = Array.map (fun _ -> float_of_int (Rng.int rng 10)) row_names in
  Reactive.set_prices (Online_mover.reactive mover) ~row_names ~duals;
  List.iter
    (fun victim ->
      let failed_hw = region.Region.servers.(victim).Region.hw.Hw.index in
      ignore (check_same_class broker res ~failed_hw (Online_mover.find_replacement mover res ~failed_hw)))
    bound

let test_reactive_respects_prices () =
  let broker = fresh_broker () in
  let reactive = Reactive.create broker in
  let region = Broker.region broker in
  (* make msb 0 expensive for every subtype; everything else free *)
  let row_names =
    Array.init Hw.count (fun hw -> Printf.sprintf "supply_m0h%du0a0" hw)
  in
  let duals = Array.make Hw.count 5.0 in
  Reactive.set_prices reactive ~row_names ~duals;
  let res = reservation_of_rru ~id:1 3.0 in
  let g = Reactive.grant reactive ~reservation:res ~rru:3.0 ~allow_buffer:false in
  Alcotest.(check bool) "granted" true (g.Reactive.granted_rru >= 3.0);
  List.iter
    (fun id ->
      Alcotest.(check bool) "avoided the expensive msb" true
        (region.Region.servers.(id).Region.loc.Region.msb <> 0))
    g.Reactive.servers

let test_price_table_parsing () =
  let reactive = Reactive.create (fresh_broker ()) in
  let row_names =
    [| "supply_m3h5u1a0"; "supply_m3k7h5u0a2"; "supply_m12h0u0a0"; "capacity_r42"; "spread_x" |]
  in
  let duals = [| -2.0; 3.5; 1e-15; -7.25; 9.9 |] in
  Reactive.set_prices reactive ~row_names ~duals;
  (* max |dual| over the class variants of (msb 3, hw 5), rack rows folded *)
  Alcotest.(check (float 1e-9)) "class max-abs aggregate" 3.5
    (Reactive.price reactive ~msb:3 ~hw:5);
  Alcotest.(check (float 1e-9)) "negligible dual skipped" 0.0
    (Reactive.price reactive ~msb:12 ~hw:0);
  Alcotest.(check (float 1e-9)) "unknown scope prices 0" 0.0
    (Reactive.price reactive ~msb:0 ~hw:0)

(* ---------- replace_failed swap accounting ---------- *)

let test_replace_failed_releases_dead_server () =
  let broker = fresh_broker () in
  let res = reservation_of_rru ~id:1 4.0 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.move broker 1 Broker.Shared_buffer;
  let owned_before = Broker.count_owner broker (Broker.Reservation 1) in
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Alcotest.(check int) "one replacement" 1 (Online_mover.replacements_done mover);
  (* the swap: replacement in, dead server out to the shared buffer *)
  Alcotest.(check bool) "replacement bound" true
    ((Broker.record broker 1).Broker.current = Broker.Reservation 1);
  Alcotest.(check bool) "dead server released to the buffer" true
    ((Broker.record broker 0).Broker.current = Broker.Shared_buffer);
  Alcotest.(check bool) "target follows" true
    ((Broker.record broker 0).Broker.target = Broker.Shared_buffer);
  Alcotest.(check int) "no double-counted membership" owned_before
    (Broker.count_owner broker (Broker.Reservation 1));
  (* the accounting the solver sees: symmetry's current-owner histograms
     must attribute exactly [owned_before] servers to the reservation even
     after the failed one heals *)
  Broker.mark_up broker 0;
  let snapshot = Snapshot.take broker [ res ] in
  let symmetry = Symmetry.build snapshot in
  let counted =
    Array.fold_left
      (fun acc cls -> acc + Symmetry.current_count symmetry cls (Broker.Reservation 1))
      0 symmetry.Symmetry.classes
  in
  Alcotest.(check int) "symmetry histogram agrees" owned_before counted

let test_double_failure_loan_round_trip () =
  let broker = fresh_broker () in
  let res = reservation_of_rru ~id:1 6.0 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  (* two reservation servers; buffer supply exists only as loans to an
     elastic reservation, so replacements must reclaim loans *)
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.move broker 1 (Broker.Reservation 1);
  Broker.move broker 2 Broker.Shared_buffer;
  Broker.move broker 3 Broker.Shared_buffer;
  Broker.move broker 4 Broker.Shared_buffer;
  let lent = Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:3 in
  Alcotest.(check int) "three loans out" 3 lent;
  Alcotest.(check int) "loans tracked" 3 (Online_mover.loans_outstanding mover);
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Broker.mark_down broker 1 Unavail.Unplanned_sw;
  Alcotest.(check int) "both failures replaced" 2 (Online_mover.replacements_done mover);
  Alcotest.(check int) "replacements consumed loans" 1 (Online_mover.loans_outstanding mover);
  Alcotest.(check int) "reservation back to strength" 2
    (Broker.count_owner broker (Broker.Reservation 1));
  Alcotest.(check int) "dead servers parked in the buffer" 2
    (Broker.count_owner broker Broker.Shared_buffer);
  (* the surviving loan still round-trips home *)
  let revoked = Online_mover.revoke mover ~elastic_id:9000 in
  Alcotest.(check int) "remaining loan revoked" 1 revoked;
  Alcotest.(check int) "no loans left" 0 (Online_mover.loans_outstanding mover);
  Alcotest.(check int) "no elastic holdings left" 0
    (Broker.count_owner broker (Broker.Elastic 9000))

(* ---------- loans live in the index ---------- *)

let test_loans_match_elastic_owners () =
  (* seeded lend / fail / heal / in-use / apply_plan / revoke churn: the
     index's loan count and lent pools must equal the Elastic owners *)
  let broker = fresh_broker () in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ reservation_of_rru ~id:1 1e6 ];
  let n = Broker.num_servers broker in
  let rng = Rng.create 23 in
  let random_owner () =
    match Rng.int rng 3 with
    | 0 -> Broker.Free
    | 1 -> Broker.Shared_buffer
    | _ -> Broker.Reservation 1
  in
  let most_loans = ref 0 in
  for _ = 1 to 3000 do
    let id = Rng.int rng n in
    (match Rng.int rng 7 with
    | 0 -> Broker.move broker id (random_owner ())
    | 1 ->
      ignore
        (Online_mover.lend_idle mover ~elastic_id:(9000 + Rng.int rng 2)
           ~max_servers:(1 + Rng.int rng 4))
    | 2 ->
      Broker.mark_down broker id
        (if Rng.int rng 2 = 0 then Unavail.Unplanned_hw else Unavail.Planned_maintenance)
    | 3 -> Broker.mark_up broker id
    | 4 -> Broker.set_in_use broker id (Rng.int rng 2 = 0)
    | 5 ->
      let to_ = random_owner () in
      let move =
        {
          Concretize.server = id;
          from_ = Broker.current_owner broker id;
          to_;
          was_in_use = Broker.in_use_at broker id;
        }
      in
      ignore (Online_mover.apply_plan mover { Concretize.moves = [ move ]; targets = [ (id, to_) ] })
    | _ -> ignore (Online_mover.revoke mover ~elastic_id:(9000 + Rng.int rng 2)));
    most_loans := max !most_loans (Online_mover.loans_outstanding mover)
  done;
  let elastic = List.filter (fun id -> Broker.is_elastic_code (Broker.current_code broker id)) (List.init n Fun.id) in
  Alcotest.(check bool) "churn lent servers" true (!most_loans > 0);
  Alcotest.(check int) "loans equal Elastic owners" (List.length elastic)
    (Online_mover.loans_outstanding mover);
  Alcotest.(check (list int)) "lent pools hold exactly the Elastic owners" elastic
    (List.sort compare (Reactive.lent_servers (Online_mover.reactive mover)));
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "home of %d" id) (List.mem id elastic)
        (Online_mover.home_of mover id = Some Broker.Shared_buffer))
    (List.init n Fun.id);
  check_index_matches_rebuild (Online_mover.reactive mover)

let test_replacement_cost_ignores_loans () =
  (* the replacement search used to walk every outstanding loan; with the
     buffer lent out entirely it must still visit O(1) servers and at most
     one class per (bucket, lent-or-buffer pool) *)
  let params, loans =
    if full_scale () then (Generator.region_scale_params, 10_000)
    else (Generator.default_params, 1_000)
  in
  let broker = Broker.create (Generator.generate params) in
  let region = Broker.region broker in
  let res = reservation_of_rru ~id:1 1e9 in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  let acceptable id = res.Reservation.rru_of region.Region.servers.(id).Region.hw > 0.0 in
  let victim = List.find acceptable (List.init (Broker.num_servers broker) Fun.id) in
  Broker.move broker victim (Broker.Reservation 1);
  for id = victim + 1 to victim + loans do
    Broker.move broker id Broker.Shared_buffer
  done;
  Alcotest.(check int) "every buffer server lent" loans
    (Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:max_int);
  for id = victim + 1 to victim + loans do
    if id mod 2 = 0 then Broker.set_in_use broker id true
  done;
  let index = Online_mover.reactive mover in
  Reactive.reset_counters index;
  Broker.mark_down broker victim Unavail.Unplanned_hw;
  let c = Reactive.counters index in
  Alcotest.(check int) "replaced from a loan" 1 (Online_mover.replacements_done mover);
  Alcotest.(check int) "the loan ended" (loans - 1) (Online_mover.loans_outstanding mover);
  Alcotest.(check bool)
    (Printf.sprintf "visited %d servers with %d loans out" c.Reactive.visited_servers loans)
    true (c.Reactive.visited_servers <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "visited %d classes of %d buckets" c.Reactive.visited_classes
       (Reactive.num_buckets index))
    true
    (c.Reactive.visited_classes <= 3 * Reactive.num_buckets index)

(* ---------- tier-2 drift bound ---------- *)

let test_tier1_repair_drift_bounded () =
  (* identical worlds; one repaired by tier-1 (reactive), one by the legacy
     oracle scans.  Re-solving both repaired states must give objectives
     within a small relative band: tier-1's price-guided picks may differ
     server-for-server, never materially in tier-2 cost. *)
  let build () =
    let region = Generator.generate Generator.small_params in
    let broker = Broker.create region in
    let rng = Rng.create 11 in
    let requests =
      Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
        ~target_utilization:0.4
    in
    let reservations =
      List.map Reservation.of_request requests
      @ Buffers.shared_buffer_reservations region ~fraction:0.05 ~first_id:8000
    in
    (broker, reservations)
  in
  let solve_objective broker reservations =
    let snapshot = Snapshot.take broker reservations in
    let result = Phases.run ~mip_node_limit:0 snapshot reservations in
    result.Phases.outcome.Ras_mip.Branch_bound.objective
  in
  (* the oracle world repairs each failure by hand with the full-scan
     pick, using replace_failed's swap *)
  let oracle_replace broker reservations id =
    match Broker.current_owner broker id with
    | Broker.Reservation rid -> (
      let res = List.find (fun r -> r.Reservation.id = rid) reservations in
      let failed_hw = (Broker.region broker).Region.servers.(id).Region.hw.Hw.index in
      match Oracles.find_replacement_reference broker res ~failed_hw with
      | Some replacement ->
        List.iter
          (fun (server, owner) ->
            Broker.move broker server owner;
            Broker.set_target broker server owner)
          [ (replacement, Broker.Reservation rid); (id, Broker.Shared_buffer) ];
        1
      | None -> 0)
    | Broker.Free | Broker.Shared_buffer | Broker.Elastic _ -> 0
  in
  let repair ~oracle =
    let broker, reservations = build () in
    let mover = Online_mover.create broker in
    Online_mover.set_reservations mover reservations;
    (* bind capacity with one heuristic round *)
    let snapshot = Snapshot.take broker reservations in
    let stats =
      Async_solver.solve
        ~params:{ Async_solver.default_params with Async_solver.node_limit = 0 }
        snapshot
    in
    ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
    (let p1 = stats.Async_solver.phase1 in
     Reactive.set_prices (Online_mover.reactive mover)
       ~row_names:p1.Phases.compiled.Ras_mip.Model.row_names ~duals:p1.Phases.lp_duals);
    (* deterministic storm over reservation-bound servers *)
    let victims = ref [] in
    Broker.iter broker ~f:(fun r ->
        match r.Broker.current with
        | Broker.Reservation rid when rid < 8000 && List.length !victims < 8 ->
          victims := r.Broker.server.Region.id :: !victims
        | _ -> ());
    let victims = List.rev !victims in
    let repaired =
      if oracle then begin
        (* a mover without reservations leaves every failure alone *)
        Online_mover.set_reservations mover [];
        List.fold_left
          (fun acc id ->
            Broker.mark_down broker id Unavail.Unplanned_hw;
            acc + oracle_replace broker reservations id)
          0 victims
      end
      else begin
        List.iter (fun id -> Broker.mark_down broker id Unavail.Unplanned_hw) victims;
        Online_mover.replacements_done mover
      end
    in
    (solve_objective broker reservations, repaired)
  in
  let obj_oracle, repl_oracle = repair ~oracle:true in
  let obj_reactive, repl_reactive = repair ~oracle:false in
  Alcotest.(check int) "both repaired the same storm" repl_oracle repl_reactive;
  let drift = Float.abs (obj_reactive -. obj_oracle) in
  let bound = 0.05 *. Float.max 1.0 (Float.abs obj_oracle) in
  Alcotest.(check bool)
    (Printf.sprintf "tier-2 objective drift %.3f within %.3f" drift bound)
    true (drift <= bound)

(* ---------- region scale (RAS_SCALE_TESTS=full) ---------- *)

let scale_world () =
  let region = Generator.generate Generator.region_scale_params in
  let broker = Broker.create region in
  let rng = Rng.create 31 in
  let n = Broker.num_servers broker in
  (* a realistic event-path state: some reservation-bound servers, a
     populated shared buffer — placed columnar, no solve needed *)
  let res = reservation_of_rru ~id:1 1e9 in
  let bound = ref [] in
  for _ = 1 to 4000 do
    let id = Rng.int rng n in
    if
      Broker.current_code broker id = Broker.owner_code Broker.Free
      && res.Reservation.rru_of region.Region.servers.(id).Region.hw > 0.0
    then begin
      Broker.move broker id (Broker.Reservation 1);
      bound := id :: !bound
    end
  done;
  for _ = 1 to 8000 do
    let id = Rng.int rng n in
    if Broker.current_code broker id = Broker.owner_code Broker.Free then
      Broker.move broker id Broker.Shared_buffer
  done;
  (broker, res, !bound)

let test_scale_reactive_visits_classes_not_servers () =
  if not (full_scale ()) then () (* 10^6-server pin: RAS_SCALE_TESTS=full only *)
  else begin
    let broker, res, bound = scale_world () in
    let mover = Online_mover.create broker in
    let reactive = Online_mover.reactive mover in
    Online_mover.set_reservations mover [ res ];
    let n = Broker.num_servers broker in
    let buckets = Reactive.num_buckets reactive in
    Reactive.reset_counters reactive;
    let events = 50 in
    let victims = List.filteri (fun i _ -> i < events) bound in
    let alloc0 = Gc.allocated_bytes () in
    List.iter (fun id -> Broker.mark_down broker id Unavail.Unplanned_hw) victims;
    let alloc = Gc.allocated_bytes () -. alloc0 in
    let c = Reactive.counters reactive in
    Alcotest.(check int) "every event repaired" events (Online_mover.replacements_done mover);
    let per_event_classes = c.Reactive.visited_classes / events in
    let per_event_servers = c.Reactive.visited_servers / events in
    Alcotest.(check bool)
      (Printf.sprintf "classes/event %d bounded by bucket count %d (region %d)"
         per_event_classes buckets n)
      true
      (per_event_classes <= buckets);
    Alcotest.(check bool)
      (Printf.sprintf "servers/event %d is O(1), not O(n=%d)" per_event_servers n)
      true (per_event_servers <= 2);
    (* repair allocation per event must not scale with the region *)
    Alcotest.(check bool)
      (Printf.sprintf "alloc/event %.0f bytes bounded" (alloc /. float_of_int events))
      true
      (alloc /. float_of_int events < 128_000.0)
  end

let test_scale_grant_bounded () =
  if not (full_scale ()) then () (* 10^6-server pin: RAS_SCALE_TESTS=full only *)
  else begin
    let broker, res, _ = scale_world () in
    let index = Reactive.create broker in
    let n = Broker.num_servers broker in
    let alloc0 = Gc.allocated_bytes () in
    let g = Reactive.grant index ~reservation:res ~rru:50.0 ~allow_buffer:false in
    let alloc = Gc.allocated_bytes () -. alloc0 in
    Alcotest.(check bool) "covered" true (g.Reactive.granted_rru >= 50.0);
    Alcotest.(check bool)
      (Printf.sprintf "visited %d of %d: early termination held" g.Reactive.visited n)
      true
      (g.Reactive.visited < n / 10);
    Alcotest.(check bool)
      (Printf.sprintf "grant allocation %.0f bytes bounded" alloc)
      true (alloc < 1_000_000.0)
  end

let suite =
  [
    Alcotest.test_case "index tracks churn" `Quick test_index_tracks_churn;
    Alcotest.test_case "index survives region growth" `Quick test_index_survives_region_growth;
    Alcotest.test_case "grant matches oracle" `Quick test_grant_matches_oracle;
    Alcotest.test_case "grant terminates early" `Quick test_grant_terminates_early;
    Alcotest.test_case "replacement matches oracle on storm" `Quick
      test_replacement_matches_oracle_on_storm;
    Alcotest.test_case "reactive replacement stays in class" `Quick
      test_reactive_replacement_same_class;
    Alcotest.test_case "reactive grant respects prices" `Quick test_reactive_respects_prices;
    Alcotest.test_case "price table parsing" `Quick test_price_table_parsing;
    Alcotest.test_case "replace_failed releases dead server" `Quick
      test_replace_failed_releases_dead_server;
    Alcotest.test_case "double failure loan round trip" `Quick
      test_double_failure_loan_round_trip;
    Alcotest.test_case "loans equal Elastic owners after churn" `Quick
      test_loans_match_elastic_owners;
    Alcotest.test_case "replacement cost ignores outstanding loans" `Quick
      test_replacement_cost_ignores_loans;
    Alcotest.test_case "tier-1 repair drift bounded" `Quick test_tier1_repair_drift_bounded;
    Alcotest.test_case "scale: visits classes not servers" `Slow
      test_scale_reactive_visits_classes_not_servers;
    Alcotest.test_case "scale: grant bounded" `Slow test_scale_grant_bounded;
  ]
