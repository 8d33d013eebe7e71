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
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  let snapshot = Snapshot.take broker reservations in
  let params = { Async_solver.default_params with Async_solver.node_limit = 40 } in
  let stats = Async_solver.solve ~params snapshot in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  ignore (Online_mover.apply_plan mover stats.Async_solver.plan);
  { broker; reservations; stats }

let fixture = lazy (build_fixture ())

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

let test_snapshot_ownership_accounting () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  (* bind two compute servers *)
  let bound = ref [] in
  Broker.iter broker ~f:(fun r ->
      if List.length !bound < 2 && res.Reservation.rru_of r.Broker.server.Region.hw > 0.0 then begin
        Broker.move broker r.Broker.server.Region.id (Broker.Reservation 1);
        bound := r.Broker.server.Region.id :: !bound
      end);
  let snap = Snapshot.take broker [ res ] in
  let expected =
    List.fold_left
      (fun acc id ->
        acc +. res.Reservation.rru_of (Broker.record broker id).Broker.server.Region.hw)
      0.0 !bound
  in
  Alcotest.(check (float 1e-9)) "current rru" expected (Snapshot.current_rru snap res);
  let by_msb = Snapshot.rru_by_msb snap res in
  Alcotest.(check (float 1e-9)) "per-msb sums to total" expected
    (Array.fold_left ( +. ) 0.0 by_msb)

let test_snapshot_excludes_unusable () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  Broker.iter broker ~f:(fun r ->
      if res.Reservation.rru_of r.Broker.server.Region.hw > 0.0 then
        Broker.move broker r.Broker.server.Region.id (Broker.Reservation 1));
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
  let snap =
    Snapshot.take ~home_of:(fun id -> if id = 0 then Some Broker.Shared_buffer else None) broker []
  in
  Alcotest.(check bool) "lent server resolved home" true
    (Snapshot.current snap 0 = Broker.Shared_buffer)

(* ---------- Symmetry ---------- *)

let test_symmetry_partition () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build snap in
  let usable = List.length (Snapshot.usable_servers snap) in
  Alcotest.(check int) "classes cover usable servers" usable (Symmetry.total_members sym);
  (* members are homogeneous *)
  Array.iter
    (fun (c : Symmetry.cls) ->
      Array.iter
        (fun id ->
          let v = Snapshot.view snap id in
          Alcotest.(check int) "hw matches" c.Symmetry.hw v.Snapshot.server.Region.hw.Hw.index;
          Alcotest.(check int) "msb matches" c.Symmetry.msb v.Snapshot.server.Region.loc.Region.msb;
          Alcotest.(check bool) "in_use matches" c.Symmetry.in_use v.Snapshot.in_use)
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
    (Symmetry.grouped_variable_count msb_level ~reservations
    <= Symmetry.raw_variable_count msb_level ~reservations)

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
    Broker.fold broker ~init:0 ~f:(fun acc r ->
        if r.Broker.current = owner && Broker.available r then acc + 1 else acc)
  in
  Alcotest.(check int) "class counts match broker" direct from_classes

(* ---------- Formulation ---------- *)

let formulation_fixture ?(rack_level = false) () =
  let lazy { broker; reservations; _ } = fixture in
  let snap = Snapshot.take broker reservations in
  let sym = Symmetry.build ~rack_level snap in
  (Formulation.build ~rack_level sym reservations, snap)

let test_status_quo_feasible () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Model.check_solution std (Formulation.status_quo f) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

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
  Alcotest.(check (float 1e-6)) "no in-use movement" 0.0
    (Formulation.movement_units f sq ~in_use:true);
  Alcotest.(check (float 1e-6)) "no idle movement" 0.0
    (Formulation.movement_units f sq ~in_use:false)

(* ---------- Concretize ---------- *)

let test_concretize_stability_and_cover () =
  let f, snap = formulation_fixture () in
  let sq = Formulation.status_quo f in
  let assignment = Formulation.decode f sq in
  let plan = Concretize.plan f assignment in
  Alcotest.(check int) "status quo has no moves" 0 (List.length plan.Concretize.moves);
  (* targets cover every usable classed server *)
  let sym = f.Formulation.symmetry in
  Alcotest.(check int) "targets cover classes" (Symmetry.total_members sym)
    (List.length plan.Concretize.targets);
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) "target ids usable" true (Snapshot.usable_at snap id))
    plan.Concretize.targets

let test_concretize_counts_respected () =
  let f, _ = formulation_fixture () in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } ->
    let sol = Formulation.repair f (Formulation.round_lp f x) in
    let assignment = Formulation.decode f sol in
    let plan = Concretize.plan f assignment in
    (* per (class, reservation) the number of targeted servers equals the
       decoded count *)
    let target_of = Hashtbl.create 256 in
    List.iter (fun (id, o) -> Hashtbl.replace target_of id o) plan.Concretize.targets;
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

let test_quorum_spread_enforced () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let req =
    Capacity_request.make ~id:1 ~service:ds ~rru:12.0 ~embedded_buffer:false
      ~hard_msb_cap:(Capacity_request.quorum_cap ~replicas:3 ~quorum:2)
      ~msb_spread_limit:0.5 ()
  in
  let reservations = [ Reservation.of_request req ] in
  let stats = Async_solver.solve (Snapshot.take broker reservations) in
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

let test_mover_failure_replacement () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  (* one server in the reservation, one compatible in the shared buffer *)
  let compute =
    Broker.fold broker ~init:[] ~f:(fun acc r ->
        if res.Reservation.rru_of r.Broker.server.Region.hw > 0.0 then
          r.Broker.server.Region.id :: acc
        else acc)
  in
  (match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check int) "replacement done" 1 (Online_mover.replacements_done mover);
    Alcotest.(check bool) "buffer server moved in" true
      ((Broker.record broker b).Broker.current = Broker.Reservation 1)
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
    ((Broker.record broker 0).Broker.current = Broker.Elastic 9000);
  Alcotest.(check bool) "home resolved" true
    (Online_mover.home_of mover 0 = Some Broker.Shared_buffer);
  let revoked = Online_mover.revoke mover ~elastic_id:9000 in
  Alcotest.(check int) "revoked" 2 revoked;
  Alcotest.(check bool) "back home" true
    ((Broker.record broker 0).Broker.current = Broker.Shared_buffer);
  Alcotest.(check int) "no loans left" 0 (Online_mover.loans_outstanding mover)

let test_mover_replacement_revokes_loan () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:5.0 ()) in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover [ res ];
  let compute =
    Broker.fold broker ~init:[] ~f:(fun acc r ->
        if res.Reservation.rru_of r.Broker.server.Region.hw > 0.0 then
          r.Broker.server.Region.id :: acc
        else acc)
  in
  match compute with
  | a :: b :: _ ->
    Broker.move broker a (Broker.Reservation 1);
    Broker.move broker b Broker.Shared_buffer;
    ignore (Online_mover.lend_idle mover ~elastic_id:9000 ~max_servers:5);
    Alcotest.(check bool) "b lent out" true
      ((Broker.record broker b).Broker.current = Broker.Elastic 9000);
    Broker.mark_down broker a Unavail.Unplanned_hw;
    Alcotest.(check bool) "loan revoked for replacement" true
      ((Broker.record broker b).Broker.current = Broker.Reservation 1)
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
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  let mover = Online_mover.create broker in
  Online_mover.set_reservations mover reservations;
  let params = { Async_solver.default_params with Async_solver.node_limit = 0 } in
  let last_moves = ref max_int in
  for _ = 1 to 4 do
    let stats = Async_solver.solve ~params (Snapshot.take broker reservations) in
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
    Broker.fold broker ~init:[] ~f:(fun acc r ->
        if res.Reservation.rru_of r.Broker.server.Region.hw > 0.0 then
          r.Broker.server.Region.id :: acc
        else acc)
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
  Alcotest.(check bool) "planned active" true
    ((Broker.record broker 0).Broker.down = Some Unavail.Planned_maintenance);
  Ras_sim.Engine.run_until engine 3.0;
  Alcotest.(check bool) "correlated overrides" true
    ((Broker.record broker 0).Broker.down = Some Unavail.Correlated);
  Ras_sim.Engine.run_until engine 5.0;
  Alcotest.(check bool) "falls back to planned" true
    ((Broker.record broker 0).Broker.down = Some Unavail.Planned_maintenance);
  Ras_sim.Engine.run_until engine 12.0;
  Alcotest.(check bool) "healthy at the end" true (Broker.healthy (Broker.record broker 0))

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
        ((Broker.record broker id).Broker.current = Broker.Reservation 1))
    grant.Reactive.servers

let test_emergency_buffer_opt_in () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  (* put ALL compute in the shared buffer so the free pool cannot satisfy *)
  let res = Reservation.of_request (Capacity_request.make ~id:1 ~service:web ~rru:2.0 ()) in
  Broker.iter broker ~f:(fun r ->
      if res.Reservation.rru_of r.Broker.server.Region.hw > 0.0 then
        Broker.move broker r.Broker.server.Region.id Broker.Shared_buffer);
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
    Buffers.shared_buffer_reservations region ~fraction:0.05 ~first_id:8000
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
  Broker.iter broker ~f:(fun r ->
      if
        r.Broker.current = Broker.Free
        && urgent.Reservation.rru_of r.Broker.server.Region.hw > 0.0
      then Broker.move broker r.Broker.server.Region.id (Broker.Reservation 77));
  let grant =
    Reactive.grant (Online_mover.reactive mover) ~reservation:urgent ~rru:8.0 ~allow_buffer:true
  in
  Alcotest.(check bool) "emergency took buffer servers" true
    (grant.Reactive.took_from_buffer > 0);
  let drained = buffer_capacity (Snapshot.take broker reservations) in
  Alcotest.(check bool) "buffer depleted" true (drained < before);
  (* release the artificial squatter, then the next solve (with the urgent
     reservation now a first-class citizen) refills the shared buffer *)
  Broker.iter broker ~f:(fun r ->
      if r.Broker.current = Broker.Reservation 77 then
        Broker.move broker r.Broker.server.Region.id Broker.Free);
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
  let buffers = Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000 in
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
  let hw_bound = Buffers.hardware_aware_bound snap reservations in
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

let test_explain_reports () =
  let lazy { broker; reservations; stats } = fixture in
  let snap = Snapshot.take broker reservations in
  let res = List.find (fun r -> not (Reservation.is_buffer r)) reservations in
  let report = Explain.reservation_report snap res in
  Alcotest.(check bool) "names the reservation" true (contains report res.Reservation.name);
  Alcotest.(check bool) "mentions spread" true (contains report "spread");
  let solve = Explain.solve_report stats in
  Alcotest.(check bool) "mentions phases" true (contains solve "phase 1");
  let reason = Explain.shortfall_reason snap res ~shortfall:1.0 in
  Alcotest.(check bool) "reason non-empty" true (String.length reason > 20)

let test_shadow_prices_surface_binding_rows () =
  (* a reservation competing for scarce GPU hardware makes its capacity row
     (or the GPU supply rows) carry a non-trivial shadow price *)
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let ml =
    Service.make ~id:1 ~name:"ml" ~profile:Service.Ml_training ~min_generation:2 ()
  in
  let req =
    Capacity_request.make ~id:1 ~service:ml ~rru:500.0 ~embedded_buffer:false
      ~msb_spread_limit:0.5 ()
  in
  let reservations = [ Reservation.of_request req ] in
  let result = Phases.run ~mip_node_limit:0 (Snapshot.take broker reservations) reservations in
  let prices = Explain.shadow_prices ~top:5 result in
  Alcotest.(check bool) "some constraint binds" true (prices <> []);
  List.iter
    (fun (name, price) ->
      Alcotest.(check bool) "named row" true (String.length name > 0);
      Alcotest.(check bool) "non-trivial price" true (Float.abs price > 1e-6))
    prices

(* ---------- System ---------- *)

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
  (* reservations hold their capacity at the end *)
  let snap = System.snapshot sys in
  let last_shortfalls =
    match System.last_solve sys with
    | Some last -> List.map fst last.Async_solver.shortfalls
    | None -> []
  in
  List.iter
    (fun res ->
      if (not (Reservation.is_buffer res)) && not (List.mem res.Reservation.id last_shortfalls)
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s capacity held" res.Reservation.name)
          true
          (Snapshot.current_rru snap res >= res.Reservation.capacity_rru -. 1e-6))
    (System.reservations sys)

let test_system_remove_reservation () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  let sys = System.create broker in
  System.add_request sys (Capacity_request.make ~id:1 ~service:ds ~rru:4.0 ());
  System.add_request sys (Capacity_request.make ~id:2 ~service:ds ~rru:3.0 ());
  ignore (System.solve_now sys);
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
  ignore (System.solve_now sys);
  let p1 =
    match System.last_solve sys with
    | Some stats -> stats.Async_solver.phase1
    | None -> Alcotest.fail "no solve recorded"
  in
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

let test_system_memory_bounded () =
  (* the system keeps one round's statistics, not all of them: forty more
     rounds must not grow its reachable heap by a single stats record, each
     of which pins a formulation, a symmetry and a snapshot *)
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
  let solve () = ignore (System.solve_now sys) in
  for _ = 1 to 10 do
    solve ()
  done;
  let words () = Obj.reachable_words (Obj.repr sys) in
  let at_10 = words () in
  for _ = 11 to 50 do
    solve ()
  done;
  let at_50 = words () in
  let record =
    match System.last_solve sys with
    | Some stats -> Obj.reachable_words (Obj.repr stats)
    | None -> Alcotest.fail "no solve recorded"
  in
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
    Alcotest.test_case "system installs tier-1 prices" `Quick test_system_installs_prices;
    Alcotest.test_case "system memory bounded over rounds" `Quick test_system_memory_bounded;
  ]
