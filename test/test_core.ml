(* Tests for the ras core: reservations, snapshots, symmetry classes, the
   MIP formulation and its heuristics, concretization, the async solver, the
   online mover, health replay, the emergency path and the whole system —
   including the paper's headline invariant: a reservation with an embedded
   buffer survives the loss of any single MSB. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Hw = Ras_topology.Hardware
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request
module Unavail = Ras_failures.Unavail
module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex
module Allocator = Ras_twine.Allocator

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()
let ds = Service.make ~id:2 ~name:"ds" ~profile:Service.Data_store ()

(* ---------- shared solved fixture ---------- *)

type fixture = {
  broker : Broker.t;
  reservations : Reservation.t list;
  stats : Async_solver.stats;
}

let build_fixture () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:0.4
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  let snapshot = Snapshot.take broker reservations in
  let params = { Async_solver.default_params with Async_solver.node_limit = 40 } in
  let stats = Async_solver.solve ~params snapshot in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  { broker; reservations; stats }

let fixture = lazy (build_fixture ())

(* Heuristic-only mode: a phase processes no node. *)
let heuristic_only = { Phases.default_params with node_limit = 0 }

(* The heuristic seed phase 1 starts its tree search from, with the root-LP
   bound, as a node-less phase 1 reports them. *)
let heuristic_seed (snap : Snapshot.t) =
  (Phases.run ~params:heuristic_only snap).Phases.outcome

(* A post-failure round on the solve-medium benchmark's region and
   requests, with rack goals on requests of 5 RRU or more so that phase 2
   runs: the snapshot the round solves, its heuristic seed and its
   statistics. *)
(* Words allocated on both heaps.  The minor count comes from
   [Gc.minor_words]: OCaml 5.1's [Gc.counters] leaves out what the minor
   heap holds since its last collection. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

type medium_round = {
  snap : Snapshot.t;
  seed : Ras_mip.Branch_bound.outcome;
  round : Async_solver.stats;
}

let medium_round =
  lazy
    (let region =
       Generator.generate
         { Generator.name = "region-medium"; num_dcs = 3; msbs_per_dc = 6; racks_per_msb = 6;
           servers_per_rack = 8; seed = 3 }
     in
     let broker = Broker.create region in
     let sys = System.create broker in
     List.iter
       (fun r ->
         System.add_request sys
           (if r.Capacity_request.rru >= 5.0 then
              { r with Capacity_request.rack_spread_limit = Some 0.06 }
            else r))
       (Ras_workload.Request_gen.scenario (Ras_stats.Rng.create 11) ~region
          ~services:Service.default_catalog ~target_utilization:0.45);
     ignore (System.solve_now sys);
     let rng = Ras_stats.Rng.create 24 in
     for _ = 1 to 5 do
       Broker.mark_down broker (Ras_stats.Rng.int rng (Broker.num_servers broker))
         Unavail.Unplanned_hw
     done;
     let snap = System.snapshot sys in
     { snap; seed = heuristic_seed snap; round = System.solve_now sys })

(* ---------- Reservation ---------- *)

let test_reservation_of_request () =
  let req =
    Capacity_request.make ~id:5 ~service:web ~rru:20.0 ~msb_spread_limit:0.2
      ~dc_affinity:[ (0, 0.9) ] ()
  in
  let r = Reservation.of_request req in
  Alcotest.(check int) "id" 5 r.Reservation.id;
  Alcotest.(check (float 1e-9)) "capacity" 20.0 r.Reservation.capacity_rru;
  Alcotest.(check bool) "guaranteed" false (Reservation.is_buffer r);
  Alcotest.(check bool) "accepts compute" true
    (Reservation.accepts r (Option.get (Hw.find_by_code "C3")));
  Alcotest.(check bool) "rejects storage" false
    (Reservation.accepts r (Option.get (Hw.find_by_code "C4-S1")))

let test_shared_buffer_reservation () =
  let r = Reservation.shared_buffer ~id:8000 ~category:Hw.Storage ~capacity_rru:50.0 in
  Alcotest.(check bool) "is buffer" true (Reservation.is_buffer r);
  Alcotest.(check bool) "no embedded buffer" false r.Reservation.embedded_buffer;
  Alcotest.(check bool) "accepts its category" true
    (Reservation.accepts r (Option.get (Hw.find_by_code "C4-S1")));
  Alcotest.(check bool) "rejects others" false
    (Reservation.accepts r (Option.get (Hw.find_by_code "C1")))

(* ---------- Snapshot ---------- *)

(* [current_rru], [rru_by_msb] and [rru_by_dc] of every reservation in
   [snap] against a per-server scan: a server counts at its home owner (a
   lent [Elastic] server at the shared buffer) unless it is in [lost] *)
let check_rru_folds broker snap ~lost =
  let region = Broker.region broker in
  let close what want got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g vs scan %g" what got want)
      true
      (Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want))
  in
  List.iter
    (fun res ->
      let total = ref 0.0 in
      let by_msb = Array.make region.Region.num_msbs 0.0 in
      let by_dc = Array.make region.Region.num_dcs 0.0 in
      Array.iter
        (fun (s : Region.server) ->
          let id = s.Region.id and hw = s.Region.hw in
          let held =
            match Broker.owner_of_code (Broker.current_code broker id) with
            | Broker.Shared_buffer | Broker.Elastic _ ->
              Reservation.is_buffer res && res.Reservation.rru_of hw > 0.0
            | Broker.Reservation r -> r = res.Reservation.id && not (Reservation.is_buffer res)
            | _ -> false
          in
          if held && not (List.mem id lost) then begin
            let v = res.Reservation.rru_of hw and loc = s.Region.loc in
            total := !total +. v;
            by_msb.(loc.Region.msb) <- by_msb.(loc.Region.msb) +. v;
            by_dc.(loc.Region.dc) <- by_dc.(loc.Region.dc) +. v
          end)
        region.Region.servers;
      let name = res.Reservation.name in
      close (name ^ " current rru") !total (Snapshot.current_rru snap res);
      Array.iteri
        (fun m v -> close (Printf.sprintf "%s msb %d" name m) v (Snapshot.rru_by_msb snap res).(m))
        by_msb;
      Array.iteri
        (fun d v -> close (Printf.sprintf "%s dc %d" name d) v (Snapshot.rru_by_dc snap res).(d))
        by_dc)
    snap.Snapshot.reservations

let test_snapshot_ownership_accounting () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  (* bind two compute servers *)
  let bound = ref [] in
  Array.iter
    (fun (s : Region.server) ->
      if List.length !bound < 2 && res.Reservation.rru_of s.Region.hw > 0.0 then begin
        Broker.move broker s.Region.id (Broker.Reservation 1);
        bound := s.Region.id :: !bound
      end)
    region.Region.servers;
  let snap = Snapshot.take broker [ res ] in
  let expected =
    List.fold_left
      (fun acc id -> acc +. res.Reservation.rru_of region.Region.servers.(id).Region.hw)
      0.0 !bound
  in
  Alcotest.(check (float 1e-9)) "current rru" expected (Snapshot.current_rru snap res);
  let by_msb = Snapshot.rru_by_msb snap res in
  Alcotest.(check (float 1e-9)) "per-msb sums to total" expected
    (Array.fold_left ( +. ) 0.0 by_msb);
  check_rru_folds broker snap ~lost:[];
  (* a second input: every third compute server bound to the reservation,
     the rest in the compute shared buffer, one of those lent out, one bound
     server in planned maintenance (still usable, section 3.5.1) and one
     down unplanned *)
  let buffer = Reservation.shared_buffer ~id:8000 ~category:Hw.Compute ~capacity_rru:50.0 in
  let compute =
    List.filter
      (fun id -> buffer.Reservation.rru_of region.Region.servers.(id).Region.hw > 0.0)
      (List.init (Region.num_servers region) Fun.id)
  in
  let bind, pool = List.partition (fun id -> id mod 3 = 0) compute in
  List.iter (fun id -> Broker.move broker id (Broker.Reservation 1)) bind;
  List.iter (fun id -> Broker.move broker id Broker.Shared_buffer) pool;
  let planned, unplanned, lent =
    match (bind, pool) with
    | p :: u :: _, l :: _ -> (p, u, l)
    | _ -> Alcotest.fail "small region lacks compute servers"
  in
  Broker.mark_down broker planned Unavail.Planned_maintenance;
  Broker.mark_down broker unplanned Unavail.Unplanned_hw;
  Broker.move broker lent (Broker.Elastic 9000);
  let snap = Snapshot.take broker [ res; buffer ] in
  Alcotest.(check bool) "lent server counts at its home" true
    (Snapshot.current_rru snap buffer
    >= buffer.Reservation.rru_of region.Region.servers.(lent).Region.hw);
  check_rru_folds broker snap ~lost:[ unplanned ]

let test_snapshot_excludes_unusable () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  Array.iter
    (fun (s : Region.server) ->
      if res.Reservation.rru_of s.Region.hw > 0.0 then
        Broker.move broker s.Region.id (Broker.Reservation 1))
    region.Region.servers;
  let before = Snapshot.current_rru (Snapshot.take broker [ res ]) res in
  (* down one bound server with an unplanned event *)
  let victim =
    List.hd (Broker.servers_with_owner broker (Broker.Reservation 1))
  in
  Broker.mark_down broker victim Unavail.Correlated;
  let after = Snapshot.current_rru (Snapshot.take broker [ res ]) res in
  Alcotest.(check bool) "unusable capacity excluded" true (after < before);
  (* planned maintenance still counts (§3.5.1) *)
  Broker.mark_up broker victim;
  Broker.mark_down broker victim Unavail.Planned_maintenance;
  let planned = Snapshot.current_rru (Snapshot.take broker [ res ]) res in
  Alcotest.(check (float 1e-9)) "planned counts as usable" before planned

let test_snapshot_home_overlay () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  Broker.move broker 0 (Broker.Elastic 9000);
  let snap = Snapshot.take broker [] in
  Alcotest.(check bool) "lent server resolved home" true
    (Snapshot.current snap 0 = Broker.Shared_buffer)

(* the column reads check the id: a caller-written filter that strays off
   the column raises instead of reading past it *)
let test_snapshot_unknown_id () =
  let region = Generator.generate Generator.small_params in
  let snap = Snapshot.take (Broker.create region) [] in
  List.iter
    (fun id ->
      Alcotest.check_raises "in_use_at" (Invalid_argument "index out of bounds") (fun () ->
          ignore (Snapshot.in_use_at snap id));
      Alcotest.check_raises "usable_at" (Invalid_argument "index out of bounds") (fun () ->
          ignore (Snapshot.usable_at snap id));
      Alcotest.check_raises "current_code" (Invalid_argument "index out of bounds") (fun () ->
          ignore (Snapshot.current_code snap id)))
    [ -1; Snapshot.num_servers snap ]

(* Everything a snapshot answers, per server and per subtype. *)
let snapshot_reads snap =
  let n = Snapshot.num_servers snap in
  ( Array.init n (Snapshot.current_code snap),
    Array.init n (Snapshot.in_use_at snap),
    Array.init n (Snapshot.usable_at snap),
    Array.init n (Snapshot.attr_at snap),
    Array.copy (Snapshot.usable_hw_histogram snap) )

(* A snapshot shares the broker's columns until the broker's next write,
   which copies them first: a snapshot reads the same after every mutator,
   back-to-back snapshots allocate no per-server words, and a lent server
   reads at its home, the shared buffer. *)
let test_snapshot_frozen_view () =
  let region =
    Generator.generate { Generator.small_params with Generator.servers_per_rack = 60 }
  in
  let broker = Broker.create region in
  let n = Broker.num_servers broker in
  Broker.move broker 1 (Broker.Reservation 3);
  Broker.set_in_use broker 1 true;
  Broker.mark_down broker 2 Unavail.Unplanned_hw;
  let first = Snapshot.take ~attr_of:(fun id -> id mod 3) broker [] in
  for id = 0 to n - 1 do
    if
      Snapshot.current_code first id <> Broker.current_code broker id
      || Snapshot.in_use_at first id <> Broker.in_use_at broker id
      || Snapshot.usable_at first id <> Broker.available_at broker id
    then Alcotest.failf "server %d: the snapshot does not read the broker at capture" id
  done;
  let first_reads = snapshot_reads first in
  let bigger =
    Generator.extend region ~new_msbs_per_dc:1 ~racks_per_msb:2 ~servers_per_rack:3 ~seed:9
  in
  let mutators =
    [
      ("move", fun () -> Broker.move broker 1 (Broker.Reservation 4));
      ("mark_down planned", fun () -> Broker.mark_down broker 3 Unavail.Planned_maintenance);
      ("mark_down sw", fun () -> Broker.mark_down broker 4 Unavail.Unplanned_sw);
      ("mark_down hw", fun () -> Broker.mark_down broker 5 Unavail.Unplanned_hw);
      ("mark_down correlated", fun () -> Broker.mark_down broker 6 Unavail.Correlated);
      ("mark_down over planned", fun () -> Broker.mark_down broker 3 Unavail.Correlated);
      ("mark_up", fun () -> Broker.mark_up broker 2);
      ("set_in_use", fun () -> Broker.set_in_use broker 7 true);
      ("extend_region", fun () -> Broker.extend_region broker bigger);
      ("move after extend", fun () -> Broker.move broker (n + 1) Broker.Shared_buffer);
    ]
  in
  List.iter
    (fun (name, write) ->
      (* a fresh snapshot before each write: every freeze is followed by
         one copy, and the copy must leave both views intact *)
      let latest = Snapshot.take broker [] in
      let latest_reads = snapshot_reads latest in
      write ();
      Alcotest.(check bool) (name ^ ": first snapshot unchanged") true
        (snapshot_reads first = first_reads);
      Alcotest.(check bool) (name ^ ": latest snapshot unchanged") true
        (snapshot_reads latest = latest_reads))
    mutators;
  Alcotest.(check int) "the broker grew" (Region.num_servers bigger) (Broker.num_servers broker);
  Alcotest.(check bool) "the broker took the writes" true
    (Broker.current_code broker 1 = Broker.owner_code (Broker.Reservation 4)
    && (not (Broker.available_at broker 3))
    && Broker.healthy_at broker 2 && Broker.in_use_at broker 7);
  (* capture is O(1): no per-server words with no write in between *)
  let words = allocated_words in
  ignore (Snapshot.take broker []);
  (* from an empty minor heap, a promotion inside the window only moves
     words allocated inside it *)
  Gc.minor ();
  let w0 = words () in
  let a = Snapshot.take broker [] in
  let b = Snapshot.take broker [] in
  let allocated = words () -. w0 in
  ignore (Sys.opaque_identity (a, b));
  Alcotest.(check bool)
    (Printf.sprintf "two snapshots of %d servers allocate %.0f words (limit 256)"
       (Broker.num_servers broker) allocated)
    true (allocated <= 256.0);
  (* a lent server reads at its home through every owner read *)
  let lent = 0 in
  let hw = (Broker.region broker).Region.servers.(lent).Region.hw in
  let buffers = Buffers.shared_buffer_reservations region ~fraction:0.02 in
  let buffer =
    match List.find_opt (fun r -> r.Reservation.rru_of hw > 0.0) buffers with
    | Some r -> r
    | None -> Alcotest.fail "no shared buffer accepts the lent server's hardware"
  in
  Broker.move broker lent (Broker.Elastic 9000);
  let snap = Snapshot.take broker buffers in
  Alcotest.(check int) "current_code" (Broker.owner_code Broker.Shared_buffer)
    (Snapshot.current_code snap lent);
  Alcotest.(check (float 1e-9)) "current_rru" (buffer.Reservation.rru_of hw)
    (Snapshot.current_rru snap buffer);
  let sym = Symmetry.build snap in
  let cls =
    match
      Array.to_list sym.Symmetry.classes
      |> List.find_opt (fun (c : Symmetry.cls) -> Array.mem lent c.Symmetry.members)
    with
    | Some c -> c
    | None -> Alcotest.fail "the lent server is in no class"
  in
  Alcotest.(check int) "owner counts: buffer" 1
    (Symmetry.current_count sym cls Broker.Shared_buffer);
  Alcotest.(check int) "owner counts: elastic" 0
    (Symmetry.current_count sym cls (Broker.Elastic 9000))

(* The broker's per-subtype counts, which admission reads through
   [Snapshot.usable_hw_histogram], equal the full fold after every change
   of a seeded sequence: failures of each kind, overlapping health events,
   maintenance and a region extension. *)
let test_snapshot_counts_match_fold () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let checks = ref 0 in
  let check () =
    let snap = Snapshot.take broker [] in
    incr checks;
    Alcotest.(check (array int))
      (Printf.sprintf "counts after change %d" !checks)
      (Oracles.usable_hw_histogram_reference snap)
      (Snapshot.usable_hw_histogram snap)
  in
  Broker.subscribe_changes broker (fun _ -> check ());
  check ();
  let rng = Ras_stats.Rng.create 29 in
  let kinds =
    [| Unavail.Planned_maintenance; Unavail.Unplanned_sw; Unavail.Unplanned_hw; Unavail.Correlated |]
  in
  let churn () =
    for _ = 1 to 200 do
      let id = Ras_stats.Rng.int rng (Broker.num_servers broker) in
      if Ras_stats.Rng.int rng 3 = 0 then Broker.mark_up broker id
      else Broker.mark_down broker id kinds.(Ras_stats.Rng.int rng (Array.length kinds))
    done
  in
  churn ();
  let engine = Ras_sim.Engine.create () in
  let event id scope kind start_h duration_h =
    { Unavail.id; scope; kind; start_h; duration_h }
  in
  let events =
    [
      event 0 (Unavail.Msb 0) Unavail.Planned_maintenance 1.0 6.0;
      event 1 (Unavail.Rack 1) Unavail.Correlated 2.0 2.0;
      event 2 (Unavail.Server 5) Unavail.Unplanned_hw 1.5 4.0;
      event 3 (Unavail.Server 5) Unavail.Unplanned_sw 3.0 0.5;
      event 4 (Unavail.Msb 1) Unavail.Correlated 2.5 1.0;
      event 5 (Unavail.Rack 2) Unavail.Planned_maintenance 0.5 8.0;
    ]
  in
  ignore (Health.install engine broker events);
  for step = 1 to 20 do
    Ras_sim.Engine.run_until engine (0.5 *. float_of_int step);
    check ()
  done;
  let bigger =
    Generator.extend region ~new_msbs_per_dc:1 ~racks_per_msb:2 ~servers_per_rack:3 ~seed:9
  in
  Broker.extend_region broker bigger;
  check ();
  churn ();
  Alcotest.(check bool) "the sequence changed availability" true (!checks > 100)

(* ---------- Symmetry ---------- *)

let test_symmetry_partition () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build snap in
  let usable = ref 0 in
  for id = 0 to Snapshot.num_servers snap - 1 do
    if Snapshot.usable_at snap id then incr usable
  done;
  Alcotest.(check int) "classes cover usable servers" !usable
    (Array.fold_left (fun acc c -> acc + Symmetry.size c) 0 sym.Symmetry.classes);
  (* members are homogeneous *)
  Array.iter
    (fun (c : Symmetry.cls) ->
      Array.iter
        (fun id ->
          let s = Snapshot.server snap id in
          Alcotest.(check int) "hw matches" c.Symmetry.hw s.Region.hw.Hw.index;
          Alcotest.(check int) "msb matches" c.Symmetry.msb s.Region.loc.Region.msb;
          Alcotest.(check bool) "in_use matches" c.Symmetry.in_use (Snapshot.in_use_at snap id))
        c.Symmetry.members)
    sym.Symmetry.classes

let test_symmetry_rack_level_finer () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let msb_level = Symmetry.build snap in
  let rack_level = Symmetry.build ~rack_level:true snap in
  Alcotest.(check bool) "rack classes >= msb classes" true
    (Symmetry.num_classes rack_level >= Symmetry.num_classes msb_level);
  Alcotest.(check bool) "grouped <= raw" true
    (Symmetry.grouped_variable_count msb_level <= Symmetry.raw_variable_count msb_level)

let test_symmetry_current_count () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build snap in
  (* summed per-class counts for an owner equal the owner's usable servers *)
  let res = List.find (fun r -> not (Reservation.is_buffer r)) reservations in
  let owner = Broker.Reservation res.Reservation.id in
  let from_classes =
    Array.fold_left
      (fun acc c -> acc + Symmetry.current_count sym c owner)
      0 sym.Symmetry.classes
  in
  let direct =
    List.length
      (List.filter (Broker.available_at broker) (Broker.servers_with_owner broker owner))
  in
  Alcotest.(check int) "class counts match broker" direct from_classes

(* ---------- Formulation ---------- *)

let formulation_fixture ?(rack_level = false) () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build ~rack_level snap in
  (Formulation.build ~rack_level sym, snap)

(* The root LP's crash basis and Phases' branch-and-bound seed both start
   from the status quo: it must be a feasible point of every model a phase
   compiles. *)
let check_status_quo tag (stats : Async_solver.stats) =
  List.iter
    (fun (phase, (p : Phases.result)) ->
      match
        Model.check_solution p.Phases.compiled (Formulation.status_quo p.Phases.formulation)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s, %s: status quo infeasible: %s" tag phase e)
    (("phase 1", stats.Async_solver.phase1)
    :: Option.to_list (Option.map (fun p2 -> ("phase 2", p2)) stats.Async_solver.phase2))

let test_status_quo_feasible () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  (match Model.check_solution std (Formulation.status_quo f) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let lazy { stats; _ } = fixture in
  check_status_quo "fixture" stats

(* round_lp never over-fills a class at either granularity — phase 1's MSB
   build or phase 2's rack build — so repair only ever tops up *)
let test_round_lp_feasible () =
  List.iter
    (fun rack_level ->
      let f, _ = formulation_fixture ~rack_level () in
      let std = Model.compile f.Formulation.model in
      match Simplex.solve std with
      | Simplex.Optimal { x; _ } -> (
        let rounded = Formulation.round_lp f x in
        (match Model.check_solution std rounded with Ok () -> () | Error e -> Alcotest.fail e);
        let repaired = Formulation.repair f rounded in
        match Model.check_solution std repaired with Ok () -> () | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail "LP should solve")
    [ false; true ]

let test_repair_improves_shortfalls () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } ->
    let rounded = Formulation.round_lp f x in
    let repaired = Formulation.repair f rounded in
    let total sol =
      List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Formulation.capacity_shortfalls f sol)
    in
    Alcotest.(check bool) "repair does not increase shortfall" true
      (total repaired <= total rounded +. 1e-6)
  | _ -> Alcotest.fail "LP should solve"

(* The pair-indexed heuristic makes every decision the Hashtbl oracle
   makes, on root-LP optima and seeded perturbations of them: Small and
   Medium at phase 1's MSB and phase 2's rack granularity, plus a
   scarce-supply region where only donors can cover shortfalls.  Across the
   corpus every pass of the oracle moves a server. *)
let test_heuristic_matches_reference () =
  let total = { Oracles.free = 0; donor = 0; spread = 0; affinity = 0 } in
  let pin name broker reservations =
    let snap = Snapshot.take broker reservations in
    List.iter
      (fun rack_level ->
        let f = Formulation.build ~rack_level (Symmetry.build ~rack_level snap) in
        match Simplex.solve (Model.compile f.Formulation.model) with
        | Simplex.Optimal { x; _ } ->
          let rng = Ras_stats.Rng.create 7 in
          let inputs = x :: List.init 4 (fun k -> Oracles.perturb_lp rng f ~fill:(k mod 2 = 1) x) in
          List.iteri
            (fun k y ->
              Alcotest.(check bool)
                (Printf.sprintf "%s rack_level=%b input %d matches the oracle" name rack_level k)
                true
                (Oracles.heuristic_matches ~total f y))
            inputs
        | _ -> Alcotest.fail "LP should solve")
      [ false; true ]
  in
  let lazy { broker; reservations; _ } = fixture in
  pin "small" broker reservations;
  let scenario name params ~utilization =
    let region = Generator.generate params in
    let rng = Ras_stats.Rng.create 11 in
    let requests =
      Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
        ~target_utilization:utilization
    in
    pin name (Broker.create region)
      (List.map Reservation.of_request requests
      @ Buffers.shared_buffer_reservations region ~fraction:0.02)
  in
  scenario "medium"
    { Generator.name = "region-medium"; num_dcs = 3; msbs_per_dc = 6; racks_per_msb = 6;
      servers_per_rack = 8; seed = 3 }
    ~utilization:0.45;
  scenario "scarce" Generator.small_params ~utilization:0.95;
  List.iter
    (fun (pass, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s pass moved (%d)" pass n) true (n > 0))
    [
      ("free top-up", total.Oracles.free);
      ("donor", total.Oracles.donor);
      ("spread", total.Oracles.spread);
      ("affinity", total.Oracles.affinity);
    ]

(* Expression (6) through the affinity search: reservation [r] wants all of
   its 2 RRU in datacenter 1 but holds one server in each of three MSBs,
   two of them in datacenter 0, and surviving the loss of any one leaves
   exactly 2.  Datacenter 1's other MSB is full, so every swap that fixes
   affinity stacks two servers in one MSB and would leave 1 RRU after that
   MSB's loss: none may be taken. *)
let test_affinity_keeps_msb_survival () =
  let region =
    Generator.generate
      { Generator.name = "affinity-survival"; num_dcs = 2; msbs_per_dc = 2; racks_per_msb = 1;
        servers_per_rack = 3; seed = 5 }
  in
  let reservation id ~capacity_rru ~dc_affinity ~embedded_buffer =
    { Reservation.id; name = Printf.sprintf "r%d" id; kind = Reservation.Guaranteed;
      capacity_rru; rru_of = (fun _ -> 1.0); msb_spread_limit = 1.0; rack_spread_limit = None;
      dc_affinity; affinity_tolerance = 0.1; embedded_buffer; hard_msb_cap = None;
      io_intensity = 0.0 }
  in
  let r = reservation 1 ~capacity_rru:2.0 ~dc_affinity:[ (0, 0.0); (1, 1.0) ] ~embedded_buffer:true in
  let filler = reservation 2 ~capacity_rru:3.0 ~dc_affinity:[] ~embedded_buffer:false in
  let msbs_of dc = List.filter (fun m -> region.Region.msb_dc.(m) = dc) [ 0; 1; 2; 3 ] in
  let full_msb = List.nth (msbs_of 1) 1 in
  let snap = Snapshot.take (Broker.create region) [ r; filler ] in
  let f = Formulation.build (Symmetry.build snap) in
  let sol =
    Formulation.encode f (fun p ->
        let msb = p.Formulation.cls.Symmetry.msb in
        if p.Formulation.res == filler then if msb = full_msb then 3 else 0
        else if msb = full_msb then 0
        else 1)
  in
  Alcotest.(check (list (pair int (float 1e-9)))) "input covers the request" []
    (Formulation.capacity_shortfalls f sol);
  let repaired = Formulation.repair f sol in
  Alcotest.(check (list (pair int (float 1e-9)))) "repair keeps it covered" []
    (Formulation.capacity_shortfalls f repaired);
  Alcotest.(check bool) "the oracle's guard agrees" true
    (Oracles.same_bits repaired (fst (Oracles.repair_reference f sol)))

let test_encode_aux_semantics () =
  (* encode must set every pos-part auxiliary to exactly max(0, e) *)
  let f, _ = formulation_fixture () in
  let sq = Formulation.status_quo f in
  List.iter
    (fun (v, exprs) ->
      let expect =
        List.fold_left
          (fun acc e -> Float.max acc (Ras_mip.Lin_expr.eval e (fun i -> sq.(i))))
          0.0 exprs
      in
      Alcotest.(check (float 1e-6)) "aux at its floor" expect sq.(v))
    f.Formulation.aux_defs

let test_status_quo_zero_movement () =
  let f, _ = formulation_fixture () in
  let sq = Formulation.status_quo f in
  (* every (class, reservation) count stays at its current one, in use or
     idle: no server leaves its owner *)
  Array.iter
    (fun (p : Formulation.pair) ->
      Alcotest.(check (float 0.0)) "count kept"
        (float_of_int
           (Symmetry.current_count f.Formulation.symmetry p.Formulation.cls
              (Reservation.owner p.Formulation.res)))
        (Formulation.count sq p))
    f.Formulation.pairs

(* ---------- Concretize ---------- *)

let test_concretize_stability_and_cover () =
  let f, snap = formulation_fixture () in
  let sq = Formulation.status_quo f in
  let assignment = Formulation.decode f sq in
  let plan = Concretize.plan f assignment in
  Alcotest.(check int) "status quo has no moves" 0 (List.length plan.Concretize.moves);
  Alcotest.(check int) "and no target writes" 0 (List.length plan.Concretize.targets);
  (* the plan covers every usable classed server and nothing else *)
  let sym = f.Formulation.symmetry in
  let covered = List.filter plan.Concretize.covers (List.init (Snapshot.num_servers snap) Fun.id) in
  Alcotest.(check int) "covers the classes"
    (Array.fold_left (fun acc c -> acc + Symmetry.size c) 0 sym.Symmetry.classes)
    (List.length covered);
  List.iter
    (fun id -> Alcotest.(check bool) "covered ids usable" true (Snapshot.usable_at snap id))
    covered

let test_concretize_counts_respected () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } ->
    let sol = Formulation.repair f (Formulation.round_lp f x) in
    let assignment = Formulation.decode f sol in
    let plan = Concretize.plan f assignment in
    (* per (class, reservation) the number of targeted servers equals the
       decoded count; a server the plan does not move keeps its owner *)
    let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
    let target_of = Hashtbl.create 256 in
    Array.iter
      (fun (c : Symmetry.cls) ->
        Array.iter (fun id -> Hashtbl.replace target_of id (Snapshot.current snapshot id)) c.Symmetry.members)
      f.Formulation.symmetry.Symmetry.classes;
    List.iter (fun m -> Hashtbl.replace target_of m.Concretize.server m.Concretize.to_) plan.Concretize.moves;
    List.iter
      (fun ((c : Symmetry.cls), (res : Reservation.t), count) ->
        let owner =
          match res.Reservation.kind with
          | Reservation.Guaranteed -> Broker.Reservation res.Reservation.id
          | Reservation.Random_failure_buffer _ -> Broker.Shared_buffer
        in
        let got =
          Array.fold_left
            (fun acc id -> if Hashtbl.find_opt target_of id = Some owner then acc + 1 else acc)
            0 c.Symmetry.members
        in
        (* shared-buffer owners pool across category reservations *)
        if not (Reservation.is_buffer res) then
          Alcotest.(check int) "count realized" count got)
      assignment.Formulation.counts
  | _ -> Alcotest.fail "LP should solve"

(* ---------- Async solver end-to-end ---------- *)

let test_solver_meets_capacity () =
  let lazy { broker; reservations; stats } = fixture in
  let snap = Snapshot.take broker reservations in
  let short_ids = List.map fst stats.Async_solver.shortfalls in
  List.iter
    (fun res ->
      if (not (Reservation.is_buffer res)) && not (List.mem res.Reservation.id short_ids) then begin
        let bound = Snapshot.current_rru snap res in
        Alcotest.(check bool)
          (Printf.sprintf "capacity met for %s" res.Reservation.name)
          true
          (bound >= res.Reservation.capacity_rru -. 1e-6)
      end)
    reservations

let test_embedded_buffer_survives_any_msb () =
  (* the paper's headline guarantee (expression 6): after losing ANY single
     MSB, a buffered reservation still holds its requested capacity *)
  let lazy { broker; reservations; stats } = fixture in
  let snap = Snapshot.take broker reservations in
  let short_ids = List.map fst stats.Async_solver.shortfalls in
  List.iter
    (fun res ->
      if
        res.Reservation.embedded_buffer
        && (not (Reservation.is_buffer res))
        && not (List.mem res.Reservation.id short_ids)
      then begin
        let per_msb = Snapshot.rru_by_msb snap res in
        let total = Array.fold_left ( +. ) 0.0 per_msb in
        Array.iteri
          (fun msb v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s survives loss of MSB %d" res.Reservation.name msb)
              true
              (total -. v >= res.Reservation.capacity_rru -. 1e-6))
          per_msb
      end)
    reservations

let test_solver_duration_and_phases () =
  let lazy { stats; _ } = fixture in
  Alcotest.(check bool) "positive duration" true (stats.Async_solver.duration_s > 0.0);
  Alcotest.(check bool) "phase1 has variables" true
    (stats.Async_solver.phase1.Phases.grouped_vars > 0);
  Alcotest.(check bool) "raw >= grouped" true
    (stats.Async_solver.phase1.Phases.raw_vars >= stats.Async_solver.phase1.Phases.grouped_vars)

(* ---------- storage quorum spread (paragraph 3.3.2) ---------- *)

let test_quorum_cap_helper () =
  Alcotest.(check (float 1e-9)) "R=3 Q=2" (1.0 /. 3.0)
    (Capacity_request.quorum_cap ~replicas:3 ~quorum:2);
  Alcotest.(check (float 1e-9)) "R=5 Q=3" 0.4 (Capacity_request.quorum_cap ~replicas:5 ~quorum:3);
  Alcotest.(check bool) "bad quorum rejected" true
    (try
       ignore (Capacity_request.quorum_cap ~replicas:3 ~quorum:4);
       false
     with Invalid_argument _ -> true)

(* Phase 1 stops once its gap is under the capacity-slack cost, and only
   then.  A bring-up whose heuristic seed leaves capacity unmet sits more
   than the slack cost above its bound, so the tree still searches, and it
   ends within the slack cost of its bound with every capacity constraint
   met. *)
let check_bad_seed_searched snap (stats : Async_solver.stats) =
  let slack = Formulation.default_params.Formulation.capacity_slack_cost in
  let seed = heuristic_seed snap in
  let p1 = stats.Async_solver.phase1.Phases.outcome in
  Alcotest.(check bool)
    (Printf.sprintf "seed %.1f is over the slack cost above its bound %.1f"
       seed.Ras_mip.Branch_bound.objective seed.Ras_mip.Branch_bound.best_bound)
    true
    (seed.Ras_mip.Branch_bound.gap > slack);
  Alcotest.(check bool)
    (Printf.sprintf "phase 1 searched (%d nodes)" p1.Ras_mip.Branch_bound.nodes)
    true
    (p1.Ras_mip.Branch_bound.nodes > 1);
  Alcotest.(check bool)
    (Printf.sprintf "phase 1 gap %.1f under the slack cost" p1.Ras_mip.Branch_bound.gap)
    true
    (p1.Ras_mip.Branch_bound.gap < slack);
  Alcotest.(check bool) "no shortfalls" true (stats.Async_solver.shortfalls = [])

let test_quorum_spread_enforced () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let req =
    Capacity_request.make ~id:1 ~service:ds ~rru:12.0 ~embedded_buffer:false
      ~hard_msb_cap:(Capacity_request.quorum_cap ~replicas:3 ~quorum:2)
      ~msb_spread_limit:0.5 ()
  in
  let reservations = [ Reservation.of_request req ] in
  let snap = Snapshot.take broker reservations in
  let stats = Async_solver.solve snap in
  check_bad_seed_searched snap stats;
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  let snap = Snapshot.take broker reservations in
  let res = List.hd reservations in
  let per_msb = Snapshot.rru_by_msb snap res in
  let total = Array.fold_left ( +. ) 0.0 per_msb in
  Alcotest.(check bool) "capacity met" true (total >= 12.0 -. 1e-6);
  let worst = Array.fold_left Float.max 0.0 per_msb /. total in
  (* one server of granularity tolerance on top of the 1/3 cap *)
  Alcotest.(check bool)
    (Printf.sprintf "max MSB share %.2f within quorum cap" worst)
    true
    (worst <= (1.0 /. 3.0) +. 0.15)

(* ---------- Online mover ---------- *)

(* ids of the servers [res] can use, highest first *)
let compatible_servers region res =
  Array.fold_left
    (fun acc (s : Region.server) ->
      if res.Reservation.rru_of s.Region.hw > 0.0 then s.Region.id :: acc else acc)
    [] region.Region.servers

let test_mover_failure_replacement () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  (* one server in the reservation, one compatible in the shared buffer *)
  let compute =
    compatible_servers region res
  in
  (match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check int) "replacement done" 1 (Online_mover.replacements_done mover);
    Alcotest.(check bool) "buffer server moved in" true
      (Broker.current_owner broker b = Broker.Reservation 1)
  | _ -> Alcotest.fail "fixture too small")

let test_mover_replacement_fails_without_buffer () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.mark_down broker 0 Unavail.Unplanned_hw;
  Alcotest.(check int) "no replacement available" 1 (Online_mover.replacements_failed mover)

let test_mover_planned_no_replacement () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.mark_down broker 0 Unavail.Planned_maintenance;
  Alcotest.(check int) "planned events need no mover action" 0
    (Online_mover.replacements_done mover + Online_mover.replacements_failed mover)

let test_mover_lend_and_revoke () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let mover = Online_mover.create broker in
  Broker.move broker 0 Broker.Shared_buffer;
  Broker.move broker 1 Broker.Shared_buffer;
  let lent = Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:5 in
  Alcotest.(check int) "both lent" 2 lent;
  Alcotest.(check int) "loans tracked" 2 (Online_mover.loans_outstanding mover);
  Alcotest.(check bool) "owner is elastic" true
    (Broker.current_owner broker 0 = Broker.Elastic 9000);
  Alcotest.(check bool) "home resolved" true
    (Online_mover.home_of mover 0 = Some Broker.Shared_buffer);
  let revoked = Online_mover.revoke mover ~elastic_id:9000 in
  Alcotest.(check int) "revoked" 2 revoked;
  Alcotest.(check bool) "back home" true
    (Broker.current_owner broker 0 = Broker.Shared_buffer);
  Alcotest.(check int) "no loans left" 0 (Online_mover.loans_outstanding mover)

let test_mover_apply_plan_counts () =
  (* one move of each kind: in use, idle, under planned maintenance (still
     available, so it moves) and down unplanned (skipped) *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let mover = Online_mover.create broker in
  List.iter (fun id -> Broker.move broker id (Broker.Reservation 1)) [ 0; 1; 2; 3 ];
  Broker.set_in_use broker 0 true;
  Broker.mark_down broker 2 Unavail.Planned_maintenance;
  Broker.mark_down broker 3 Unavail.Unplanned_hw;
  let move id =
    {
      Concretize.server = id;
      from_ = Broker.Reservation 1;
      to_ = Broker.Free;
      was_in_use = id = 0;
    }
  in
  let ids = [ 0; 1; 2; 3 ] in
  let plan = Concretize.of_moves ~covers:(fun _ -> false) (List.map move ids) in
  let stats = Online_mover.apply_plan mover plan in
  Alcotest.(check (list int)) "in use / unused / skipped / target writes" [ 1; 2; 1; 4 ]
    [
      stats.Online_mover.moved_in_use;
      stats.Online_mover.moved_unused;
      stats.Online_mover.skipped_unavailable;
      stats.Online_mover.target_writes;
    ];
  Alcotest.(check (list bool)) "moved servers are free, the skipped one is not"
    [ true; true; true; false ]
    (List.map (fun id -> Broker.current_owner broker id = Broker.Free) ids);
  Alcotest.(check (list bool)) "every target written" [ true; true; true; true ]
    (List.map (fun id -> Broker.target_code broker id = Broker.owner_code Broker.Free) ids)

let test_mover_replacement_revokes_loan () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  let compute =
    compatible_servers region res
  in
  match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    ignore (Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:5);
    Alcotest.(check bool) "b lent out" true
      (Broker.current_owner broker b = Broker.Elastic 9000);
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check bool) "loan revoked for replacement" true
      (Broker.current_owner broker b = Broker.Reservation 1)
  | _ -> Alcotest.fail "fixture too small"

let test_solver_converges_to_stability () =
  (* continuous optimization must reach a fixed point: after a few
     solve/apply rounds on a static region, plans stop moving servers *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:0.4
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let params = { Async_solver.default_params with Async_solver.node_limit = 0 } in
  let last_moves = ref max_int in
  for _ = 1 to 4 do
    let stats = Async_solver.solve ~params (Snapshot.take broker reservations) in
    check_status_quo "converging round" stats;
    ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
    last_moves := List.length stats.Async_solver.plan.Concretize.moves
  done;
  Alcotest.(check bool)
    (Printf.sprintf "converged (last plan had %d moves)" !last_moves)
    true (!last_moves <= 2)

let test_mover_replacement_sla () =
  (* with an engine attached, replacements land one simulated minute after
     the failure, not before (paragraph 3.3.1's replacement SLO) *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let engine = Ras_sim.Engine.create () in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create ~engine broker in
  Online_mover.set_reservations mover [ res ];
  let compute =
    compatible_servers region res
  in
  match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    Ras_sim.Engine.run_until engine 10.0;
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check int) "nothing replaced synchronously" 0
      (Online_mover.replacements_done mover);
    Ras_sim.Engine.run_until engine (10.0 +. (0.5 /. 60.0));
    Alcotest.(check int) "still pending at 30s" 0 (Online_mover.replacements_done mover);
    Ras_sim.Engine.run_until engine (10.0 +. (1.5 /. 60.0));
    Alcotest.(check int) "replaced within the minute" 1
      (Online_mover.replacements_done mover)
  | _ -> Alcotest.fail "fixture too small"

let test_mover_skips_recovered_server () =
  (* if the server comes back before the one-minute mark, no replacement is
     spent on it *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let engine = Ras_sim.Engine.create () in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create ~engine broker in
  Online_mover.set_reservations mover [ res ];
  Broker.move broker 0 (Broker.Reservation 1);
  Broker.move broker 1 Broker.Shared_buffer;
  Broker.mark_down broker 0 Unavail.Unplanned_sw;
  Ras_sim.Engine.run_until engine (0.5 /. 60.0);
  Broker.mark_up broker 0;
  Ras_sim.Engine.run_until engine 1.0;
  Alcotest.(check int) "no replacement for a bounced server" 0
    (Online_mover.replacements_done mover)

(* ---------- Health ---------- *)

let test_health_overlap_severity () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let engine = Ras_sim.Engine.create () in
  let events =
    [
      { Unavail.id = 0; scope = Unavail.Server 0; kind = Unavail.Planned_maintenance; start_h = 1.0; duration_h = 10.0 };
      { Unavail.id = 1; scope = Unavail.Server 0; kind = Unavail.Correlated; start_h = 2.0; duration_h = 2.0 };
    ]
  in
  let _ = Health.install engine broker events in
  Ras_sim.Engine.run_until engine 1.5;
  (* planned maintenance leaves a server available to the solver; an
     unplanned event does not *)
  let planned () = Broker.available_at broker 0 && not (Broker.healthy_at broker 0) in
  Alcotest.(check bool) "planned active" true (planned ());
  Ras_sim.Engine.run_until engine 3.0;
  Alcotest.(check bool) "correlated overrides" false (Broker.available_at broker 0);
  Ras_sim.Engine.run_until engine 5.0;
  Alcotest.(check bool) "falls back to planned" true (planned ());
  Ras_sim.Engine.run_until engine 12.0;
  Alcotest.(check bool) "healthy at the end" true (Broker.healthy_at broker 0)

(* ---------- Emergency grant (Reactive.grant) ---------- *)

let test_emergency_grant () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:4.0 ()) in
  let grant =
    Reactive.grant (Reactive.create broker) ~reservation:res ~rru:4.0 ~allow_buffer:false
  in
  Alcotest.(check bool) "granted" true (grant.Reactive.granted_rru >= 4.0);
  Alcotest.(check int) "nothing from buffer" 0 grant.Reactive.took_from_buffer;
  List.iter
    (fun id ->
      Alcotest.(check bool) "bound directly" true
        (Broker.current_owner broker id = Broker.Reservation 1))
    grant.Reactive.servers

let test_emergency_buffer_opt_in () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  (* put ALL compute in the shared buffer so the free pool cannot satisfy *)
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:2.0 ()) in
  List.iter
    (fun id -> Broker.move broker id Broker.Shared_buffer)
    (compatible_servers region res);
  let index = Reactive.create broker in
  let no_buffer = Reactive.grant index ~reservation:res ~rru:2.0 ~allow_buffer:false in
  Alcotest.(check (float 1e-9)) "nothing without opt-in" 0.0 no_buffer.Reactive.granted_rru;
  let with_buffer = Reactive.grant index ~reservation:res ~rru:2.0 ~allow_buffer:true in
  Alcotest.(check bool) "buffer drained with opt-in" true
    (with_buffer.Reactive.granted_rru >= 2.0 && with_buffer.Reactive.took_from_buffer > 0)

let test_solve_repairs_emergency_damage () =
  (* the out-of-band path may drain the shared buffer; the next solve must
     restore the buffer reservation to its capacity (paper §5.4) *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let reservations =
    Buffers.shared_buffer_reservations region ~fraction:0.05
  in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let params = { Async_solver.default_params with Async_solver.node_limit = 0 } in
  let solve_apply () =
    let stats = Async_solver.solve ~params (Snapshot.take broker reservations) in
    ignore (Online_mover.apply_plan mover stats.Async_solver.plan)
  in
  solve_apply ();
  let buffer_capacity snap =
    List.fold_left
      (fun acc res -> acc +. Snapshot.current_rru snap res)
      0.0 reservations
  in
  let before = buffer_capacity (Snapshot.take broker reservations) in
  Alcotest.(check bool) "buffers filled" true (before > 0.0);
  (* occupy the free compute pool so the urgent grant must dip into the
     shared buffer *)
  let urgent = Reservation.of_request (Capacity_request.make ~id:99 ~service:web ~rru:8.0 ()) in
  List.iter
    (fun id -> Broker.move broker id (Broker.Reservation 77))
    (List.filter
       (fun id -> Broker.current_owner broker id = Broker.Free)
       (compatible_servers region urgent));
  let grant =
    Reactive.grant (Online_mover.reactive mover) ~reservation:urgent ~rru:8.0 ~allow_buffer:true
  in
  Alcotest.(check bool) "emergency took buffer servers" true
    (grant.Reactive.took_from_buffer > 0);
  let drained = buffer_capacity (Snapshot.take broker reservations) in
  Alcotest.(check bool) "buffer depleted" true (drained < before);
  (* release the artificial squatter, then the next solve (with the urgent
     reservation now a first-class citizen) refills the shared buffer *)
  List.iter
    (fun id -> Broker.move broker id Broker.Free)
    (Broker.servers_with_owner broker (Broker.Reservation 77));
  let reservations' = urgent :: reservations in
  Online_mover.set_reservations mover reservations';
  let stats = Async_solver.solve ~params (Snapshot.take broker reservations') in
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  let snap = Snapshot.take broker reservations' in
  List.iter
    (fun res ->
      Alcotest.(check bool)
        (Printf.sprintf "%s restored" res.Reservation.name)
        true
        (Snapshot.current_rru snap res >= res.Reservation.capacity_rru -. 1e-6))
    reservations;
  Alcotest.(check bool) "urgent reservation kept its capacity" true
    (Snapshot.current_rru snap urgent >= 8.0 -. 1e-6)

(* ---------- Buffers ---------- *)

let test_shared_buffer_sizing () =
  let region = Generator.generate Generator.small_params in
  let buffers = Buffers.shared_buffer_reservations region ~fraction:0.02 in
  Alcotest.(check bool) "at least one category" true (buffers <> []);
  List.iter
    (fun b ->
      Alcotest.(check bool) "buffer kind" true (Reservation.is_buffer b);
      Alcotest.(check bool) "positive capacity" true (b.Reservation.capacity_rru >= 1.0))
    buffers

let test_buffer_bounds_ordering () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let perfect = Buffers.perfect_spread_bound (Broker.region broker) in
  let hw_bound = Buffers.hardware_aware_bound snap in
  let achieved = Buffers.embedded_buffer_fraction snap in
  Alcotest.(check (float 1e-9)) "perfect bound = 1/6" (1.0 /. 6.0) perfect;
  if not (Float.is_nan hw_bound) then
    Alcotest.(check bool) "hardware bound >= perfect - eps" true (hw_bound >= perfect -. 0.02);
  if not (Float.is_nan achieved) && not (Float.is_nan hw_bound) then
    Alcotest.(check bool) "achieved >= hardware bound - eps" true (achieved >= hw_bound -. 0.02)

(* ---------- Explain ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

(* The one-pass reservation report reads byte for byte as the two-walk
   version did, for every reservation of a bring-up and of a post-failure
   Medium round. *)
let test_explain_report_matches_reference () =
  let lazy { broker; reservations; _ } = fixture in
  let lazy { snap = medium; _ } = medium_round in
  let lines = ref 0 in
  List.iter
    (fun (snap : Snapshot.t) ->
      List.iter
        (fun res ->
          let want = Oracles.reservation_report_reference snap res in
          Alcotest.(check string) res.Reservation.name want (Explain.reservation_report snap res);
          lines := !lines + List.length (String.split_on_char '\n' want))
        snap.Snapshot.reservations)
    [ Snapshot.take broker reservations; medium ];
  Alcotest.(check bool) (Printf.sprintf "%d report lines compared" !lines) true (!lines > 100)

let test_explain_reports () =
  let lazy { broker; reservations; stats } = fixture in
  let snap = Snapshot.take broker reservations in
  let res = List.find (fun r -> not (Reservation.is_buffer r)) reservations in
  let report = Explain.reservation_report snap res in
  Alcotest.(check bool) "names the reservation" true (contains report res.Reservation.name);
  Alcotest.(check bool) "mentions spread" true (contains report "spread");
  let solve = Explain.solve_report stats in
  Alcotest.(check bool) "mentions phases" true (contains solve "phase 1");
  Alcotest.(check bool) "reports the root LP's pivots" true
    (contains solve
       (Printf.sprintf "root LP %d pivots"
          (stats.Async_solver.phase1.Phases.root_lp_pivots
          + Option.fold ~none:0
              ~some:(fun p2 -> p2.Phases.root_lp_pivots)
              stats.Async_solver.phase2)));
  (* each phase says what stopped its tree search, with the node count,
     objective, bound and gap it stopped at: phase 1 met its gap
     tolerance, the Medium round's phase 2 spent its node budget *)
  let check_phase report label stopped (p : Phases.result) =
    let o = p.Phases.outcome in
    Alcotest.(check bool) (label ^ " reports what stopped its search") true
      (contains report
         (Printf.sprintf "B&B %s at node %d: objective %.1f, bound %.1f, gap %.1f" stopped
            o.Ras_mip.Branch_bound.nodes o.Ras_mip.Branch_bound.objective
            o.Ras_mip.Branch_bound.best_bound o.Ras_mip.Branch_bound.gap))
  in
  check_phase solve "phase 1" "met its gap tolerance" stats.Async_solver.phase1;
  Alcotest.(check bool) "phase 2 skip reported" true (contains solve "phase 2: skipped");
  let lazy { round; _ } = medium_round in
  let medium = Explain.solve_report round in
  check_phase medium "Medium phase 1" "met its gap tolerance" round.Async_solver.phase1;
  (match round.Async_solver.phase2 with
  | Some p2 -> check_phase medium "Medium phase 2" "stopped at a node, time or stall limit" p2
  | None -> Alcotest.fail "phase 2 should refine the rack goals");
  let reason = Explain.shortfall_reason snap res ~shortfall:1.0 in
  Alcotest.(check bool) "reason non-empty" true (String.length reason > 20)

(* A reservation competing for scarce GPU hardware, on an empty Small
   region. *)
let gpu_scarce_snapshot () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let ml =
    Service.make ~id:1 ~name:"ml" ~profile:Service.Ml_training ~min_generation:2 ()
  in
  let req =
    Capacity_request.make ~id:1 ~service:ml ~rru:500.0 ~embedded_buffer:false
      ~msb_spread_limit:0.5 ()
  in
  Snapshot.take broker [ Reservation.of_request req ]

let test_shadow_prices_surface_binding_rows () =
  (* the scarce reservation's capacity row (or the GPU supply rows) carries
     a non-trivial shadow price *)
  let snap = gpu_scarce_snapshot () in
  let result = Phases.run ~params:heuristic_only snap in
  let prices = Explain.shadow_prices ~top:5 result in
  Alcotest.(check bool) "some constraint binds" true (prices <> []);
  List.iter
    (fun (name, price) ->
      Alcotest.(check bool) "named row" true (String.length name > 0);
      Alcotest.(check bool) "non-trivial price" true (Float.abs price > 1e-6))
    prices

(* A server held by a reservation the snapshot leaves out is not RAS's to
   move: on the Medium rack-goal round with three reservations left out,
   none of their servers is a member of either phase's symmetry classes,
   nor is it covered, moved or given a target. *)
let test_solve_leaves_unmanaged_alone () =
  let lazy { snap; _ } = medium_round in
  let left_out =
    List.filteri (fun i _ -> i < 3)
      (List.filter (fun r -> not (Reservation.is_buffer r)) snap.Snapshot.reservations)
  in
  let codes = List.map (fun r -> Broker.owner_code (Reservation.owner r)) left_out in
  let unmanaged id = List.mem (Snapshot.current_code snap id) codes in
  let held = List.filter unmanaged (List.init (Snapshot.num_servers snap) Fun.id) in
  Alcotest.(check bool) "the left-out reservations hold servers" true (held <> []);
  let reservations = List.filter (fun r -> not (List.memq r left_out)) snap.Snapshot.reservations in
  let stats = Async_solver.solve { snap with Snapshot.reservations } in
  let none_held what ids =
    Alcotest.(check (list int)) (what ^ " hold no unmanaged server") [] (List.filter unmanaged ids)
  in
  let check_classes what (p : Phases.result) =
    none_held what
      (Array.fold_left
         (fun acc (c : Symmetry.cls) -> Array.to_list c.Symmetry.members @ acc)
         [] p.Phases.formulation.Formulation.symmetry.Symmetry.classes)
  in
  check_classes "phase 1 classes" stats.Async_solver.phase1;
  (match stats.Async_solver.phase2 with
  | Some p2 -> check_classes "phase 2 classes" p2
  | None -> Alcotest.fail "phase 2 should refine the rack goals");
  let plan = stats.Async_solver.plan in
  Alcotest.(check bool) "the plan moves servers" true (plan.Concretize.moves <> []);
  none_held "covered ids" (List.filter plan.Concretize.covers held);
  none_held "targets" (List.map fst plan.Concretize.targets);
  none_held "moves" (List.map (fun m -> m.Concretize.server) plan.Concretize.moves)

(* Phase 2's pools, read from phase 1's assignment on the Medium round,
   are the per-server count of the snapshot with phase 1's moves made. *)
let test_phase2_pools_match_the_pass () =
  let lazy { round; _ } = medium_round in
  let f1 = round.Async_solver.phase1.Phases.formulation in
  match Oracles.held_difference f1 (Formulation.decode f1 round.Async_solver.phase1.Phases.solution) with
  | None -> ()
  | Some difference -> Alcotest.failf "Medium round phase 1: %s" difference

(* One web reservation whose rack goal (no rack above 1% of its 20 RRU)
   overflows whatever phase 1 binds, alone on an empty Small-layout
   region: its phase-2 pool is what it holds plus every free server.
   With 300 servers a rack the pool exceeds the 6,000-variable cap and
   phase 2 does not run; with 20 it fits and phase 2 refines it. *)
let test_phase2_cap () =
  let check ~servers_per_rack ~fits =
    let region = Generator.generate { Generator.small_params with servers_per_rack } in
    let res =
      Reservation.of_request
        { (Capacity_request.make ~id:1 ~service:web ~rru:20.0 ()) with
          Capacity_request.rack_spread_limit = Some 0.01 }
    in
    let snap = Snapshot.take (Broker.create region) [ res ] in
    let stats =
      Async_solver.solve ~params:{ Async_solver.default_params with node_limit = 0 } snap
    in
    let label what = Printf.sprintf "%d servers a rack: %s" servers_per_rack what in
    let f1 = stats.Async_solver.phase1.Phases.formulation in
    let assignment = Formulation.decode f1 stats.Async_solver.phase1.Phases.solution in
    let held = Concretize.held f1 assignment in
    let pool = held (Reservation.owner res) + held Broker.Free in
    Alcotest.(check bool) (label (Printf.sprintf "pool of %d fits the cap" pool)) fits (pool <= 6000);
    let overflow =
      Async_solver.rack_overflows snap (Concretize.moves_of f1 assignment)
    in
    Alcotest.(check bool) (label "the rack goal overflows") true (List.hd overflow > 1e-6);
    Alcotest.(check (list int)) (label "phase 2's reservations")
      (if fits then [ 1 ] else [])
      (match stats.Async_solver.phase2 with
      | Some p2 -> List.map (fun r -> r.Reservation.id) p2.Phases.formulation.Formulation.reservations
      | None -> [])
  in
  check ~servers_per_rack:300 ~fits:false;
  check ~servers_per_rack:20 ~fits:true

(* ---------- System ---------- *)

(* After bring-up, the heuristic seed of a Medium round is within the
   capacity-slack cost of the root bound: phase 1 proves that at its root
   node and keeps the seed, leaving the node budget to phase 2. *)
let test_phase1_stops_within_slack () =
  let lazy { seed; round; _ } = medium_round in
  let slack = Formulation.default_params.Formulation.capacity_slack_cost in
  Alcotest.(check bool)
    (Printf.sprintf "seed %.1f within the slack cost of its bound %.1f"
       seed.Ras_mip.Branch_bound.objective seed.Ras_mip.Branch_bound.best_bound)
    true
    (seed.Ras_mip.Branch_bound.gap < slack);
  let p1 = round.Async_solver.phase1.Phases.outcome in
  Alcotest.(check int) "phase 1 processes the root only" 1 p1.Ras_mip.Branch_bound.nodes;
  Alcotest.(check (float 1e-9)) "phase 1 keeps the seed" seed.Ras_mip.Branch_bound.objective
    p1.Ras_mip.Branch_bound.objective;
  Alcotest.(check bool)
    (Printf.sprintf "open root bound %.1f below the incumbent" p1.Ras_mip.Branch_bound.best_bound)
    true
    (p1.Ras_mip.Branch_bound.gap > 0.0 && p1.Ras_mip.Branch_bound.gap < slack);
  Alcotest.(check bool) "proven on softened constraints" true
    round.Async_solver.proven_constraints_fixed;
  match round.Async_solver.phase2 with
  | Some p2 ->
    Alcotest.(check int) "phase 2 keeps its node budget" Async_solver.default_params.Async_solver.node_limit
      p2.Phases.outcome.Ras_mip.Branch_bound.nodes
  | None -> Alcotest.fail "phase 2 should refine the rack goals"

(* Heuristic-only mode runs the one search path: branch-and-bound accepts
   the seed, processes no node and keeps it, and the phase reports the
   root LP's objective as its bound.  Over the suite's zero-node phases:
   the Medium round's heuristic seed, the shadow-price fixture and the
   world of the tier-1 drift test. *)
let test_zero_node_phase () =
  let check what (snap : Snapshot.t) =
    let p = Phases.run ~params:heuristic_only snap in
    let o = p.Phases.outcome and f = p.Phases.formulation and std = p.Phases.compiled in
    (* the phase's root LP, solved again as [Phases.run] solves it *)
    let status_quo = Formulation.status_quo f in
    match Ras_mip.Simplex.solve ~basis:(Ras_mip.Simplex.crash std status_quo) std with
    | Ras_mip.Simplex.Optimal { x; obj; _ } ->
      Alcotest.(check bool) (what ^ ": seed accepted") true
        (o.Ras_mip.Branch_bound.seed = Ras_mip.Branch_bound.Seed_accepted);
      Alcotest.(check int) (what ^ ": no node") 0 o.Ras_mip.Branch_bound.nodes;
      Alcotest.(check bool)
        (Printf.sprintf "%s: bound %h is the root LP's %h" what o.Ras_mip.Branch_bound.best_bound obj)
        true
        (o.Ras_mip.Branch_bound.best_bound = obj);
      Alcotest.(check bool) (what ^ ": gap from that bound") true
        (o.Ras_mip.Branch_bound.gap = o.Ras_mip.Branch_bound.objective -. obj);
      (* the seed: the rounded-and-repaired root LP, or the status quo
         where that is cheaper *)
      let repaired = Formulation.repair f (Formulation.round_lp f x) in
      let cost = Ras_mip.Model.objective_value std in
      Alcotest.(check bool) (what ^ ": solution is the seed") true
        (p.Phases.solution = if cost repaired <= cost status_quo then repaired else status_quo)
    | _ -> Alcotest.failf "%s: root LP not optimal" what
  in
  check "Medium heuristic seed" (Lazy.force medium_round).snap;
  check "scarce GPU" (gpu_scarce_snapshot ());
  let broker, reservations = Test_reactive.drift_world () in
  check "tier-1 drift world" (Snapshot.take broker reservations)

let test_system_end_to_end () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:0.4
  in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
    }
  in
  let sys = System.create ~config broker in
  List.iter (System.add_request sys) requests;
  let failures =
    Ras_failures.Failure_model.generate (Ras_stats.Rng.create 5) region
      Ras_failures.Failure_model.calm_params ~horizon_days:1.0
  in
  System.install_failures sys failures;
  System.start sys;
  System.run sys ~until_h:24.0;
  Alcotest.(check bool) "solves happened" true (System.solve_count sys >= 24);
  let metrics = System.metrics sys in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true (Ras_sim.Metrics.find metrics name <> None))
    [ "max_msb_share"; "power_variance"; "moves_in_use"; "moves_unused"; "unavailable_frac" ];
  (* reservations hold their capacity after a round on the day's end state *)
  let last_shortfalls = List.map fst (System.solve_now sys).Async_solver.shortfalls in
  let snap = System.snapshot sys in
  List.iter
    (fun res ->
      if (not (Reservation.is_buffer res)) && not (List.mem res.Reservation.id last_shortfalls)
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s capacity held" res.Reservation.name)
          true
          (Snapshot.current_rru snap res >= res.Reservation.capacity_rru -. 1e-6))
    (System.reservations sys)

let test_system_metrics_match_reference () =
  (* every metrics tick of a day with containers, lent buffers and
     failures: the owner-code reads give the decoded-owner reads' power
     variance and unavailable fraction, bit for bit *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let requests =
    Ras_workload.Request_gen.scenario (Ras_stats.Rng.create 11) ~region
      ~services:Service.default_catalog ~target_utilization:0.4
  in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
    }
  in
  let sys = System.create ~config broker in
  List.iter (System.add_request sys) requests;
  System.install_failures sys
    (Ras_failures.Failure_model.generate (Ras_stats.Rng.create 5) region
       Ras_failures.Failure_model.default_params ~horizon_days:1.0);
  (* and servers that stay down all day, one of each kind *)
  List.iteri
    (fun i kind -> Broker.mark_down broker (17 * (i + 1)) kind)
    Unavail.[ Planned_maintenance; Unplanned_sw; Unplanned_hw; Correlated ];
  System.start sys;
  (* events at equal times run in schedule order: this check runs right
     after each metrics tick *)
  let ticks = ref 0 in
  (* System samples metrics every hour, half an hour after each solve *)
  Ras_sim.Engine.schedule_every (System.engine sys) ~first:0.5 ~period:1.0
    (fun eng ->
      incr ticks;
      let variance, unavailable = Oracles.metrics_reference broker in
      let last name =
        match Ras_sim.Metrics.find (System.metrics sys) name with
        | Some series -> (
          let points = Ras_stats.Timeseries.points series in
          let n = Array.length points in
          match if n = 0 then None else Some points.(n - 1) with
          | Some (time, v) when time = Ras_sim.Engine.now eng -> v
          | Some _ | None -> Alcotest.failf "%s not recorded at this tick" name)
        | None -> Alcotest.failf "%s never recorded" name
      in
      Alcotest.(check (float 0.0)) "power_variance" variance (last "power_variance");
      Alcotest.(check (float 0.0)) "unavailable_frac" unavailable (last "unavailable_frac"));
  System.run sys ~until_h:24.0;
  Alcotest.(check int) "one check per tick" 24 !ticks

let test_system_remove_reservation () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let sys = System.create broker in
  System.add_request sys (Capacity_request.make ~id:1 ~service:ds ~rru:4.0 ());
  System.add_request sys (Capacity_request.make ~id:2 ~service:ds ~rru:3.0 ());
  let snap = System.snapshot sys in
  check_bad_seed_searched snap (System.solve_now sys);
  Alcotest.(check bool) "servers bound" true
    (Broker.count_owner broker (Broker.Reservation 1) > 0);
  (* a down server of the removed reservation is released too *)
  (match Broker.servers_with_owner broker (Broker.Reservation 1) with
  | id :: _ -> Broker.mark_down broker id Unavail.Unplanned_hw
  | [] -> ());
  let n = Broker.num_servers broker in
  let cur0 = Array.init n (Broker.current_code broker) in
  let tgt0 = Array.init n (Broker.target_code broker) in
  System.remove_reservation sys 1;
  Alcotest.(check int) "servers released" 0 (Broker.count_owner broker (Broker.Reservation 1));
  (* exactly the removed reservation's servers move, to Free in both
     columns; every other server keeps its current owner and target *)
  let removed = Broker.owner_code (Broker.Reservation 1) and free = Broker.owner_code Broker.Free in
  for id = 0 to n - 1 do
    let cur, tgt = if cur0.(id) = removed then (free, free) else (cur0.(id), tgt0.(id)) in
    Alcotest.(check (pair int int))
      (Printf.sprintf "server %d owner/target" id)
      (cur, tgt)
      (Broker.current_code broker id, Broker.target_code broker id)
  done;
  (* the owner histogram over usable servers, as the next round's symmetry
     build sees it through its O(1) per-class counts (the snapshot counts a
     lent server at its home, the shared buffer) *)
  let sym = Symmetry.build (System.snapshot sys) in
  List.iter
    (fun owner ->
      let code = Broker.owner_code owner in
      let counts_as c =
        c = code || (owner = Broker.Shared_buffer && Broker.is_elastic_code c)
      in
      let direct = ref 0 in
      for id = 0 to n - 1 do
        if counts_as (Broker.current_code broker id) && Broker.available_at broker id then
          incr direct
      done;
      let from_classes =
        Array.fold_left (fun acc c -> acc + Symmetry.current_count sym c owner) 0 sym.Symmetry.classes
      in
      Alcotest.(check int) "owner histogram" !direct from_classes)
    [ Broker.Free; Broker.Reservation 1; Broker.Reservation 2; Broker.Shared_buffer ]

let test_system_removed_allocator_is_deaf () =
  (* a removed reservation's allocator must stop hearing broker events: if
     its id comes back, the old allocator would otherwise re-place its
     stale containers onto the new reservation's servers *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
    }
  in
  let sys = System.create ~config broker in
  let req = Capacity_request.make ~id:1 ~service:web ~rru:12.0 () in
  System.add_request sys req;
  ignore (System.solve_now sys);
  let removed = Option.get (System.allocator sys 1) in
  Alcotest.(check bool) "containers placed" true (Allocator.placed_containers removed > 0);
  System.remove_reservation sys 1;
  System.add_request sys req;
  ignore (System.solve_now sys);
  let live = Option.get (System.allocator sys 1) in
  Alcotest.(check bool) "a new allocator" true (live != removed);
  let in_use = List.sort compare (Allocator.servers_in_use removed) in
  let pending = Allocator.pending_containers removed in
  (* storm: every server of the re-added reservation fails, then heals *)
  let victims = Broker.servers_with_owner broker (Broker.Reservation 1) in
  List.iter (fun id -> Broker.mark_down broker id Unavail.Unplanned_hw) victims;
  List.iter (fun id -> Broker.mark_up broker id) victims;
  Alcotest.(check (list int)) "removed allocator's servers unchanged" in_use
    (List.sort compare (Allocator.servers_in_use removed));
  Alcotest.(check int) "removed allocator's pending unchanged" pending
    (Allocator.pending_containers removed)

let test_system_installs_prices () =
  (* each round hands phase 1's root-LP duals to the tier-1 index: every
     (msb, hw) bucket is priced at the max |dual| over its supply rows *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let requests =
    Ras_workload.Request_gen.scenario (Ras_stats.Rng.create 11) ~region
      ~services:Service.default_catalog ~target_utilization:0.8
  in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
    }
  in
  let sys = System.create ~config broker in
  List.iter (System.add_request sys) requests;
  let p1 = (System.solve_now sys).Async_solver.phase1 in
  let duals = p1.Phases.lp_duals and row_names = p1.Phases.compiled.Model.row_names in
  Alcotest.(check int) "one dual per row" (Array.length row_names) (Array.length duals);
  let expected = Array.make (region.Region.num_msbs * Hw.count) 0.0 in
  Array.iteri
    (fun i name ->
      let scope =
        try Some (Scanf.sscanf name "supply_m%dk%_dh%d" (fun m h -> (m, h)))
        with Scanf.Scan_failure _ | End_of_file -> (
          try Some (Scanf.sscanf name "supply_m%dh%d" (fun m h -> (m, h)))
          with Scanf.Scan_failure _ | End_of_file -> None)
      in
      match scope with
      | Some (msb, hw) ->
        let b = (msb * Hw.count) + hw in
        expected.(b) <- Float.max expected.(b) (Float.abs duals.(i))
      | None -> ())
    row_names;
  Alcotest.(check bool) "some supply row is priced" true
    (Array.exists (fun p -> p > 1e-12) expected);
  let reactive = System.reactive sys in
  Array.iteri
    (fun b want ->
      let msb = b / Hw.count and hw = b mod Hw.count in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "price of msb %d hw %d" msb hw)
        want
        (Reactive.price reactive ~msb ~hw))
    expected

(* Rounds of [System] on the medium preset's layout at [servers_per_rack],
   with rack goals on the larger requests, as the solver-performance figures
   set them, so phase 2 has overflows to refine; containers and failures
   between rounds make moves of in-use servers and phase-2 snapshots that
   differ from the round's.  Every round's rack overflows, phase-2
   selection, phase-2 snapshot and merged plan must be the ones the
   table-and-list oracle rebuilds from the round's phase results. *)
(* The medium preset's layout at [servers_per_rack] under the medium
   workload, rack goals on the larger requests, no tree search. *)
let rack_goal_system ~servers_per_rack =
  let region =
    Generator.generate
      {
        Generator.name = "region-medium";
        num_dcs = 3;
        msbs_per_dc = 6;
        racks_per_msb = 6;
        servers_per_rack;
        seed = 3;
      }
  in
  let broker = Broker.create region in
  let requests =
    Ras_workload.Request_gen.scenario (Ras_stats.Rng.create 11) ~region
      ~services:Service.default_catalog ~target_utilization:0.45
    |> List.map (fun (r : Capacity_request.t) ->
           if r.Capacity_request.rru >= 5.0 then
             { r with Capacity_request.rack_spread_limit = Some 0.06 }
           else r)
  in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
    }
  in
  let sys = System.create ~config broker in
  List.iter (System.add_request sys) requests;
  (broker, sys, config.System.solver)

let target_column broker = Array.init (Broker.num_servers broker) (Broker.target_code broker)

(* After an apply that found the target column [before], the broker's
   targets are the ones the reference apply of [reference] writes. *)
let check_targets label broker before (reference : Oracles.full_plan) =
  Alcotest.(check bool) (label ^ ": target column after apply") true
    (target_column broker = Oracles.apply_reference before reference)

let elastic_servers broker =
  List.filter
    (fun id -> Broker.is_elastic_code (Broker.current_code broker id))
    (List.init (Broker.num_servers broker) Fun.id)

let system_merge_matches_reference ~servers_per_rack ~rounds =
  let broker, sys, _ = rack_goal_system ~servers_per_rack in
  let rng = Ras_stats.Rng.create 7 in
  let phase2_rounds = ref 0 and lent_rounds = ref 0 in
  for round = 1 to rounds do
    for _ = 1 to 10 do
      let id = Ras_stats.Rng.int rng (Broker.num_servers broker) in
      Broker.mark_down broker id Unavail.Unplanned_hw
    done;
    (* intent the broker holds but the owners do not yet follow: some of
       these servers are down, so the round does not cover them *)
    for _ = 1 to 10 do
      Broker.set_target broker (Ras_stats.Rng.int rng (Broker.num_servers broker)) Broker.Free
    done;
    if elastic_servers broker <> [] then incr lent_rounds;
    let before = target_column broker in
    let stats = System.solve_now sys in
    let reference = Oracles.merge_reference stats in
    let label what = Printf.sprintf "round %d: %s" round what in
    check_status_quo (label "after failures") stats;
    check_targets (label "merged plan") broker before reference.Oracles.plan;
    let p1 = stats.Async_solver.phase1 in
    let f1 = p1.Phases.formulation in
    let snapshot = f1.Formulation.symmetry.Symmetry.snapshot in
    (* the sums run in id order, not the oracle's hash order *)
    let worst =
      List.fold_left2
        (fun acc got want ->
          Float.max acc (Float.abs (got -. want) /. Float.max 1.0 (Float.abs want)))
        0.0
        (Async_solver.rack_overflows snapshot
           (Concretize.moves_of f1 (Formulation.decode f1 p1.Phases.solution)))
        reference.Oracles.overflows
    in
    Alcotest.(check bool)
      (label (Printf.sprintf "rack overflows within %g of the oracle's" worst))
      true (worst <= 1e-9);
    let selected =
      match stats.Async_solver.phase2 with
      | Some p2 ->
        incr phase2_rounds;
        List.map (fun r -> r.Reservation.id) p2.Phases.formulation.Formulation.reservations
      | None -> []
    in
    Alcotest.(check (list int)) (label "phase-2 selection") reference.Oracles.selected selected;
    (match (stats.Async_solver.phase2, reference.Oracles.phase2_snapshot) with
    | Some p2, Some want ->
      let got = p2.Phases.formulation.Formulation.symmetry.Symmetry.snapshot in
      Alcotest.(check (array int)) (label "phase-2 owners") want.Snapshot.current
        got.Snapshot.current;
      Alcotest.(check bool) (label "phase-2 in-use column") true
        (Bytes.equal want.Snapshot.in_use got.Snapshot.in_use)
    | None, None -> ()
    | Some _, None | None, Some _ -> Alcotest.fail (label "phase 2 ran on one side only"));
    Alcotest.(check bool) (label "merged plan") true
      (Oracles.plan_matches stats.Async_solver.plan reference.Oracles.plan);
    System.run sys ~until_h:(float_of_int round)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "phase 2 fired (%d of %d rounds)" !phase2_rounds rounds)
    true (!phase2_rounds >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "servers on loan (%d of %d rounds)" !lent_rounds rounds)
    true (!lent_rounds >= 1)

(* The simplex keeps its count of infeasible basic rows by pivot instead
   of rescanning every row each iteration; a count that drifts from the
   scan changes which phase an iteration prices in, and with it the pivot
   sequence.  The medium round's phase-1 root LP, cold and from the crash
   basis at the status quo, and a 40-node tree search over it, whose warm
   restarts run the dual phase, must take the pivots the scanning simplex
   took. *)
let test_root_lp_pivots_pinned () =
  let lazy { round; _ } = medium_round in
  let p1 = round.Async_solver.phase1 in
  let std = p1.Phases.compiled in
  let solve label want basis =
    match Simplex.solve ?basis std with
    | Simplex.Optimal { iterations; obj; _ } ->
      Alcotest.(check int) (label ^ " pivots") want iterations;
      obj
    | _ -> Alcotest.failf "%s: root LP not optimal" label
  in
  let cold = solve "cold" 1169 None in
  let crash =
    solve "crash" 149 (Some (Simplex.crash std (Formulation.status_quo p1.Phases.formulation)))
  in
  Alcotest.(check (float 1e-6)) "same objective" cold crash;
  (* a tree search's warm restarts run the dual phase *)
  let out =
    Ras_mip.Branch_bound.solve
      ~options:
        { Ras_mip.Branch_bound.default_options with node_limit = 40; time_limit = 600.0 }
      std
  in
  Alcotest.(check (list int)) "tree search: nodes, node-LP pivots, dual pivots" [ 40; 1418; 171 ]
    [
      out.Ras_mip.Branch_bound.nodes;
      out.Ras_mip.Branch_bound.lp_iterations;
      out.Ras_mip.Branch_bound.dual_pivots;
    ]

(* ---------- expression (1): the bound split against the pos-part row ---------- *)

(* [f]'s model states expression (1) as a bound split of each held pair's
   count; [Oracles.formulation_reference] over the same classes and
   parameters states it as a move variable and row per held pair.  The
   split model has one row fewer per held pair, and both root LPs reach
   the same optimum to 1e-9 relative.  Returns the two compiled models. *)
let check_split_root_lp tag (f : Formulation.t) =
  let std = Model.compile f.Formulation.model in
  let reference =
    Model.compile
      (Oracles.formulation_reference ~params:f.Formulation.params
         ~rack_level:f.Formulation.rack_level f.Formulation.symmetry)
  in
  let held =
    Array.fold_left
      (fun n (p : Formulation.pair) -> if p.Formulation.current > 0 then n + 1 else n)
      0 f.Formulation.pairs
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: %d rows, one fewer per held pair (%d)" tag std.Model.nrows held)
    (reference.Model.nrows - held) std.Model.nrows;
  (match (Simplex.solve std, Simplex.solve reference) with
  | Simplex.Optimal a, Simplex.Optimal b ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: root LP %.12g vs the pos-part reference's %.12g" tag a.obj b.obj)
      true
      (Float.abs (a.obj -. b.obj) <= 1e-9 *. Float.max 1.0 (Float.abs b.obj))
  | _ -> Alcotest.failf "%s: a root LP is not optimal" tag);
  (std, reference)

let test_split_medium_round () =
  let lazy { round; _ } = medium_round in
  ignore (check_split_root_lp "phase 1" round.Async_solver.phase1.Phases.formulation);
  match round.Async_solver.phase2 with
  | Some p2 -> ignore (check_split_root_lp "phase 2" p2.Phases.formulation)
  | None -> Alcotest.fail "phase 2 did not run"

(* Small seeded regions (4 MSBs of 2 servers) after greedy bring-up, with
   every request resized and some servers in use, solved to optimality:
   the split model's MIP optimum is the pos-part reference's.  Across the
   corpus every column shape occurs (a pair holding none of its class,
   part of it and all of it), and some searches branch. *)
let test_split_mip_optima () =
  let shapes = Array.make 3 0 and trees = ref 0 in
  for seed = 1 to 40 do
    let region =
      Generator.generate
        { Generator.name = "split-mip"; num_dcs = 2; msbs_per_dc = 2; racks_per_msb = 1;
          servers_per_rack = 2; seed }
    in
    let broker = Broker.create region in
    let rng = Ras_stats.Rng.create (500 + seed) in
    let requests =
      Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
        ~target_utilization:0.5
    in
    ignore (Ras_twine.Greedy.fulfill broker requests);
    for id = 0 to Broker.num_servers broker - 1 do
      if Ras_stats.Rng.int rng 4 = 0 then Broker.set_in_use broker id true
    done;
    let reservations =
      List.map
        (fun req ->
          let r = Reservation.of_request req in
          { r with Reservation.capacity_rru = r.Reservation.capacity_rru *. (0.5 +. Ras_stats.Rng.float rng 1.0) })
        requests
    in
    let f = Formulation.build (Symmetry.build (Snapshot.take broker reservations)) in
    Array.iter
      (fun (p : Formulation.pair) ->
        let k =
          if p.Formulation.current = 0 then 0
          else if p.Formulation.current < Symmetry.size p.Formulation.cls then 1
          else 2
        in
        shapes.(k) <- shapes.(k) + 1)
      f.Formulation.pairs;
    let tag = Printf.sprintf "seed %d" seed in
    let std, reference = check_split_root_lp tag f in
    let optimum std =
      let out =
        Ras_mip.Branch_bound.solve
          ~options:{ Ras_mip.Branch_bound.default_options with gap_rel = 0.0; gap_abs = 1e-9 }
          std
      in
      if out.Ras_mip.Branch_bound.status <> Ras_mip.Branch_bound.Optimal then
        Alcotest.failf "%s: MIP not solved to optimality" tag;
      if out.Ras_mip.Branch_bound.nodes > 1 then incr trees;
      out.Ras_mip.Branch_bound.objective
    in
    let a = optimum std and b = optimum reference in
    Alcotest.(check bool)
      (Printf.sprintf "%s: MIP optimum %.12g vs the pos-part reference's %.12g" tag a b)
      true
      (Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b))
  done;
  Array.iteri
    (fun k n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s pairs occur (%d)" [| "unheld"; "partly held"; "wholly held" |].(k) n)
        true (n > 0))
    shapes;
  Alcotest.(check bool) (Printf.sprintf "searches that branch (%d)" !trees) true (!trees > 0)

(* The medium round's phase-1 and phase-2 models compile bit-identical to
   [Oracles.compile_reference], the per-row table and sort that
   [Model.compile]'s dense scratch replaced. *)
let test_medium_round_compile_pinned () =
  let lazy { round; _ } = medium_round in
  let check phase (p : Phases.result) =
    match
      Oracles.std_difference p.Phases.compiled
        (Oracles.compile_reference p.Phases.formulation.Formulation.model)
    with
    | None -> ()
    | Some field -> Alcotest.failf "%s: compiled %s differs from the reference" phase field
  in
  check "phase 1" round.Async_solver.phase1;
  match round.Async_solver.phase2 with
  | Some p2 -> check "phase 2" p2
  | None -> Alcotest.fail "phase 2 did not run"

(* Merge and apply allocate O(classes + quotas + moves), not O(servers):
   a round on the medium layout at 8 and at 48 servers per rack, counted
   from the decoded phase results to the applied plan. *)
let test_merge_apply_words () =
  List.iter
    (fun servers_per_rack ->
      let broker, sys, params = rack_goal_system ~servers_per_rack in
      ignore (System.solve_now sys);
      let rng = Ras_stats.Rng.create 5 in
      for _ = 1 to 20 do
        Broker.mark_down broker (Ras_stats.Rng.int rng (Broker.num_servers broker)) Unavail.Unplanned_hw
      done;
      let snapshot = System.snapshot sys in
      let stats = Async_solver.solve ~params snapshot in
      let decoded (p : Phases.result) =
        (p.Phases.formulation, Formulation.decode p.Phases.formulation p.Phases.solution)
      in
      let f1, a1 = decoded stats.Async_solver.phase1 in
      let phase2 = Option.map decoded stats.Async_solver.phase2 in
      (* the first write after the snapshot copies the frozen columns: pay
         it outside the window *)
      Broker.set_in_use broker 0 (not (Broker.in_use_at broker 0));
      Broker.set_in_use broker 0 (not (Broker.in_use_at broker 0));
      Gc.minor ();
      let w0 = allocated_words () in
      let moves1 = Concretize.moves_of f1 a1 in
      let moves =
        match phase2 with
        | Some (f2, a2) -> Concretize.merge snapshot ~phase1:moves1 ~phase2:(Concretize.moves_of f2 a2)
        | None -> moves1
      in
      let plan = Concretize.of_moves ~covers:(Snapshot.covers snapshot) moves in
      let apply = Online_mover.apply_plan (System.mover sys) plan in
      let words = allocated_words () -. w0 in
      let classes, quotas =
        List.fold_left
          (fun (c, q) (f, (a : Formulation.assignment)) ->
            (c + Symmetry.num_classes f.Formulation.symmetry, q + List.length a.Formulation.counts))
          (0, 0)
          ((f1, a1) :: Option.to_list phase2)
      in
      let moved = List.length moves1 + List.length moves + apply.Online_mover.target_writes in
      (* a per-server word, 5,184 of them at 48 servers per rack, fails it *)
      let bound = (64 * classes) + (8 * quotas) + (32 * moved) + 1024 in
      Alcotest.(check bool)
        (Printf.sprintf
           "%d servers: %.0f words for %d classes, %d quotas, %d moves, %d target writes (bound %d)"
           (Broker.num_servers broker) words classes quotas (List.length moves)
           apply.Online_mover.target_writes bound)
        true
        (words <= float_of_int bound))
    [ 8; 48 ]

(* A planned move whose server goes down before the apply is skipped and
   leaves a stale target; once the server heals, the next round covers it
   and the apply resets it.  That round leaves one reservation out of its
   snapshot, so its servers are filtered out; it has stale targets on
   covered and on filtered-out servers and shared-buffer servers on loan.
   Moves and the target column after each apply are the oracle's. *)
let test_apply_matches_reference () =
  let broker, sys, params = rack_goal_system ~servers_per_rack:8 in
  ignore (System.solve_now sys);
  let mover = System.mover sys in
  let rng = Ras_stats.Rng.create 5 in
  for _ = 1 to 10 do
    Broker.mark_down broker (Ras_stats.Rng.int rng (Broker.num_servers broker)) Unavail.Unplanned_hw
  done;
  let round label ?(unmanaged = -1) ~before_apply () =
    let snap = System.snapshot sys in
    let reservations =
      List.filter
        (fun r -> Broker.owner_code (Reservation.owner r) <> unmanaged)
        snap.Snapshot.reservations
    in
    let stats = Async_solver.solve ~params { snap with Snapshot.reservations } in
    let reference = Oracles.merge_reference stats in
    let plan = stats.Async_solver.plan in
    Alcotest.(check bool) (label ^ ": moves") true (Oracles.plan_matches plan reference.Oracles.plan);
    before_apply plan;
    let before = target_column broker in
    let apply = Online_mover.apply_plan mover plan in
    check_targets label broker before reference.Oracles.plan;
    (plan, apply)
  in
  (* a correlated failure: the mover leaves it to the next round *)
  let skipped = ref (-1) in
  let _, apply =
    round "a down server skips its move"
      ~before_apply:(fun plan ->
        match plan.Concretize.moves with
        | m :: _ ->
          skipped := m.Concretize.server;
          Broker.mark_down broker !skipped Unavail.Correlated
        | [] -> Alcotest.fail "the round after failures moves nothing")
      ()
  in
  Alcotest.(check int) "one move skipped" 1 apply.Online_mover.skipped_unavailable;
  Alcotest.(check bool) "its target is stale" true (List.mem !skipped (Broker.stale_servers broker));
  Broker.mark_up broker !skipped;
  ignore (Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:max_int);
  Alcotest.(check bool) "servers on loan" true (elastic_servers broker <> []);
  (* the owner of the first reservation-held server id in 37's steps,
     other than the healed server's *)
  let unmanaged =
    let healed = Broker.current_code broker !skipped in
    let rec first id =
      let code = Broker.current_code broker id in
      match Broker.owner_of_code code with
      | Broker.Reservation _ when code <> healed -> code
      | _ -> first (id + 37)
    in
    first 0
  in
  let filtered id = Broker.current_code broker id = unmanaged in
  let stale_filtered = ref [] in
  for id = 0 to Broker.num_servers broker - 1 do
    if id mod 37 = 0 && Broker.current_code broker id <> Broker.owner_code Broker.Free then begin
      Broker.set_target broker id Broker.Free;
      if filtered id then stale_filtered := id :: !stale_filtered
    end
  done;
  Alcotest.(check bool) "stale targets on filtered-out servers" true (!stale_filtered <> []);
  let plan, apply =
    round "healed, under a filter" ~unmanaged
      ~before_apply:(fun _ -> ())
      ()
  in
  Alcotest.(check bool) "the healed server is covered" true (plan.Concretize.covers !skipped);
  Alcotest.(check int) "nothing skipped" 0 apply.Online_mover.skipped_unavailable;
  Alcotest.(check (list int)) "only uncovered servers stay stale" []
    (List.filter plan.Concretize.covers (Broker.stale_servers broker));
  Alcotest.(check bool) "filtered-out stale targets kept" true
    (List.for_all (fun id -> List.mem id (Broker.stale_servers broker)) !stale_filtered)

(* Growing the region by one MSB per datacenter re-sizes the shared buffer
   to the grown region, and the next round covers the new servers and
   binds some of them. *)
let test_system_extend_region () =
  let broker, sys, _ = rack_goal_system ~servers_per_rack:8 in
  ignore (System.solve_now sys);
  let old_n = Broker.num_servers broker in
  let extended =
    Generator.extend (Broker.region broker) ~new_msbs_per_dc:1 ~racks_per_msb:6
      ~servers_per_rack:8 ~seed:77
  in
  System.extend_region sys extended;
  let key r = (r.Reservation.id, r.Reservation.name, r.Reservation.capacity_rru) in
  Alcotest.(check (list (triple int string (float 1e-9))))
    "buffers sized to the grown region"
    (List.map key
       (Buffers.shared_buffer_reservations extended
          ~fraction:System.default_config.System.shared_buffer_fraction))
    (List.map key (List.filter Reservation.is_buffer (System.reservations sys)));
  let added = List.init (Broker.num_servers broker - old_n) (fun i -> old_n + i) in
  Alcotest.(check int) "three new MSBs" 144 (List.length added);
  let plan = (System.solve_now sys).Async_solver.plan in
  Alcotest.(check bool) "the round covers the new servers" true
    (List.for_all plan.Concretize.covers added);
  Alcotest.(check bool) "and binds some of them" true
    (List.exists (fun id -> Broker.current_code broker id <> Broker.owner_code Broker.Free) added)

let test_system_merge_matches_reference () =
  (* the medium preset itself: 864 servers *)
  system_merge_matches_reference ~servers_per_rack:8 ~rounds:4;
  (* 5,184 servers: a candidate's phase-2 pool (its own plus the free
     usable servers) is large enough that the 6,000-variable cap turns
     candidates away, so the sizing histogram decides the selection *)
  system_merge_matches_reference ~servers_per_rack:48 ~rounds:2

let test_system_memory_bounded () =
  (* the system keeps no round's statistics: forty more rounds must not
     grow its reachable heap by a single stats record, each of which pins a
     formulation, a symmetry and a snapshot *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let requests =
    Ras_workload.Request_gen.scenario (Ras_stats.Rng.create 11) ~region
      ~services:Service.default_catalog ~target_utilization:0.4
  in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
    }
  in
  let sys = System.create ~config broker in
  List.iter (System.add_request sys) requests;
  let last = ref None in
  let solve () = last := Some (System.solve_now sys) in
  for _ = 1 to 10 do
    solve ()
  done;
  let words () = Obj.reachable_words (Obj.repr sys) in
  let at_10 = words () in
  for _ = 11 to 50 do
    solve ()
  done;
  let at_50 = words () in
  let record = Obj.reachable_words (Obj.repr (Option.get !last)) in
  Alcotest.(check int) "every solve counted" 50 (System.solve_count sys);
  Alcotest.(check bool)
    (Printf.sprintf "heap grew %d words from solve 10 to 50, one stats record is %d"
       (at_50 - at_10) record)
    true
    (at_50 - at_10 < record)

let suite =
  [
    Alcotest.test_case "reservation of_request" `Quick test_reservation_of_request;
    Alcotest.test_case "shared buffer reservation" `Quick test_shared_buffer_reservation;
    Alcotest.test_case "snapshot ownership" `Quick test_snapshot_ownership_accounting;
    Alcotest.test_case "snapshot excludes unusable" `Quick test_snapshot_excludes_unusable;
    Alcotest.test_case "snapshot home overlay" `Quick test_snapshot_home_overlay;
    Alcotest.test_case "symmetry partition" `Slow test_symmetry_partition;
    Alcotest.test_case "symmetry rack level finer" `Slow test_symmetry_rack_level_finer;
    Alcotest.test_case "symmetry current_count" `Slow test_symmetry_current_count;
    Alcotest.test_case "status quo feasible" `Slow test_status_quo_feasible;
    Alcotest.test_case "round_lp + repair feasible" `Slow test_round_lp_feasible;
    Alcotest.test_case "heuristic matches the Hashtbl oracle" `Slow
      test_heuristic_matches_reference;
    Alcotest.test_case "affinity swaps keep MSB-loss survival" `Quick
      test_affinity_keeps_msb_survival;
    Alcotest.test_case "repair improves shortfalls" `Slow test_repair_improves_shortfalls;
    Alcotest.test_case "encode aux semantics" `Slow test_encode_aux_semantics;
    Alcotest.test_case "status quo zero movement" `Slow test_status_quo_zero_movement;
    Alcotest.test_case "concretize stability" `Slow test_concretize_stability_and_cover;
    Alcotest.test_case "concretize counts" `Slow test_concretize_counts_respected;
    Alcotest.test_case "solver meets capacity" `Slow test_solver_meets_capacity;
    Alcotest.test_case "embedded buffer survives any MSB" `Slow test_embedded_buffer_survives_any_msb;
    Alcotest.test_case "solver duration/phases" `Slow test_solver_duration_and_phases;
    Alcotest.test_case "quorum cap helper" `Quick test_quorum_cap_helper;
    Alcotest.test_case "quorum spread enforced" `Slow test_quorum_spread_enforced;
    Alcotest.test_case "mover failure replacement" `Quick test_mover_failure_replacement;
    Alcotest.test_case "mover replacement fails w/o buffer" `Quick test_mover_replacement_fails_without_buffer;
    Alcotest.test_case "mover ignores planned" `Quick test_mover_planned_no_replacement;
    Alcotest.test_case "mover lend and revoke" `Quick test_mover_lend_and_revoke;
    Alcotest.test_case "mover apply_plan counts" `Quick test_mover_apply_plan_counts;
    Alcotest.test_case "mover replacement revokes loan" `Quick test_mover_replacement_revokes_loan;
    Alcotest.test_case "solver converges to stability" `Slow test_solver_converges_to_stability;
    Alcotest.test_case "mover replacement SLA" `Quick test_mover_replacement_sla;
    Alcotest.test_case "mover skips recovered server" `Quick test_mover_skips_recovered_server;
    Alcotest.test_case "health overlap severity" `Quick test_health_overlap_severity;
    Alcotest.test_case "emergency grant" `Quick test_emergency_grant;
    Alcotest.test_case "emergency buffer opt-in" `Quick test_emergency_buffer_opt_in;
    Alcotest.test_case "solve repairs emergency damage" `Slow test_solve_repairs_emergency_damage;
    Alcotest.test_case "shared buffer sizing" `Quick test_shared_buffer_sizing;
    Alcotest.test_case "buffer bounds ordering" `Slow test_buffer_bounds_ordering;
    Alcotest.test_case "explain reports" `Slow test_explain_reports;
    Alcotest.test_case "shadow prices surface binding rows" `Quick
      test_shadow_prices_surface_binding_rows;
    Alcotest.test_case "system end to end" `Slow test_system_end_to_end;
    Alcotest.test_case "system remove reservation" `Quick test_system_remove_reservation;
    Alcotest.test_case "phase 1 stops within the slack cost" `Quick test_phase1_stops_within_slack;
    Alcotest.test_case "explain report matches the two-walk reference" `Quick
      test_explain_report_matches_reference;
    Alcotest.test_case "zero-node phase keeps the seed, bounded by the root LP" `Quick
      test_zero_node_phase;
    Alcotest.test_case "system metrics match the record reads" `Quick
      test_system_metrics_match_reference;
    Alcotest.test_case "system installs tier-1 prices" `Quick test_system_installs_prices;
    Alcotest.test_case "system memory bounded over rounds" `Quick test_system_memory_bounded;
    Alcotest.test_case "system merge matches the oracle over rounds" `Slow
      test_system_merge_matches_reference;
    Alcotest.test_case "apply matches the oracle: stale, lent, filtered" `Quick
      test_apply_matches_reference;
    Alcotest.test_case "merge and apply allocate O(moves)" `Quick test_merge_apply_words;
    Alcotest.test_case "root LP pivots pinned" `Quick test_root_lp_pivots_pinned;
    Alcotest.test_case "snapshot unknown id" `Quick test_snapshot_unknown_id;
    Alcotest.test_case "solve leaves unmanaged reservations alone" `Quick
      test_solve_leaves_unmanaged_alone;
    Alcotest.test_case "phase-2 pools match the per-server pass" `Quick
      test_phase2_pools_match_the_pass;
    Alcotest.test_case "phase 2 runs only when a pool fits the cap" `Quick test_phase2_cap;
    Alcotest.test_case "system removed allocator is deaf" `Quick
      test_system_removed_allocator_is_deaf;
    Alcotest.test_case "snapshot is a frozen view" `Quick test_snapshot_frozen_view;
    Alcotest.test_case "snapshot counts match the full fold" `Quick
      test_snapshot_counts_match_fold;
    Alcotest.test_case "medium round's models compile bit-identical to the reference" `Quick
      test_medium_round_compile_pinned;
    Alcotest.test_case "system extend_region re-sizes the buffer" `Quick
      test_system_extend_region;
    Alcotest.test_case "stability bound split: medium round root LPs match the pos-part reference"
      `Quick test_split_medium_round;
    Alcotest.test_case "stability bound split: small MIP optima match the pos-part reference"
      `Quick test_split_mip_optima;
  ]
