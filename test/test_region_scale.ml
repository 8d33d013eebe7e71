(* Region-scale battery: the streaming, symmetry-aggregated pipeline at the
   north-star preset (§3.3.1: 36 MSBs, ~10^6 servers).

   The region-scale preset varies only [servers_per_rack] between scales;
   rack hardware is drawn once per rack, so the same logical region exists
   at ~2x10^4 (spr=1), ~10^5 (spr=5) and ~10^6 (spr=48) raw servers with
   identical class structure.  That gives six pins:

   - equivalence: the streaming [Symmetry.build] must agree with the
     retained pre-columnar oracle [Oracles.build_reference] class-for-class
     and produce the same compiled model, whose root LP optimum must pass
     [Oracles.lp_certificate] and whose final factorization must solve
     identically under the sparse and the all-steps dense solves; and
     every round's model must compile bit-identical to the table-and-sort
     [Oracles.compile_reference];
   - disaggregation: a class-level solution concretized to per-server
     targets and re-aggregated must encode back to a feasible vector with
     the same objective, and the class walk and merge must pick the moves
     of the retained table-and-list oracle, and the apply leave its
     target column;
   - heuristic: rounding and repair of the bring-up model's root-LP
     optimum must match the retained Hashtbl oracle bit for bit;
   - root LP: after failures, the crash basis at the status quo must halve
     the cold start's pivots and reach the same objective;
   - stability: each round's models, with expression (1) a bound split,
     must reach the root-LP optimum of the pos-part reference
     [Oracles.formulation_reference];
   - ceilings: compiled size must be independent of raw server count
     (Fig. 10/11 regime), formulation+compile allocation must be bounded by
     model size (not server count), the symmetry build must allocate its
     group column and member arrays plus O(classes), and the columnar
     snapshot/symmetry live footprint must stay a few words per server.

   [dune runtest] keeps the sweep at spr <= 5; RAS_SCALE_TESTS=full adds
   the 10^6 run (scripts/check.sh sets it by default). *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Region = Ras_topology.Region
module Unavail = Ras_failures.Unavail
module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex

let full_scale () = Sys.getenv_opt "RAS_SCALE_TESTS" = Some "full"

let params_at ~servers_per_rack =
  { Generator.region_scale_params with Generator.servers_per_rack }

(* The bench preset's workload (kernels.ml scenario_snapshot), plus churn:
   greedy fulfillment, scattered failures of every kind, and a sparse
   placement attribute, so symmetry sees non-trivial in_use/usable/attr
   columns. *)
let scale_broker ?(churn = true) ~servers_per_rack () =
  let region = Generator.generate (params_at ~servers_per_rack) in
  let broker = Broker.create region in
  let services =
    List.filter
      (fun s -> s.Ras_workload.Service.id <= 12 || s.Ras_workload.Service.id = 13
                || s.Ras_workload.Service.id = 17)
      Ras_workload.Service.default_catalog
  in
  let rng = Ras_stats.Rng.create 11 in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services ~target_utilization:0.45
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  if churn then begin
    ignore (Ras_twine.Greedy.fulfill broker requests);
    let n = Broker.num_servers broker in
    let frng = Ras_stats.Rng.create 23 in
    for _ = 1 to n / 200 do
      let id = Ras_stats.Rng.int frng n in
      let kind =
        match Ras_stats.Rng.int frng 4 with
        | 0 -> Unavail.Planned_maintenance
        | 1 -> Unavail.Unplanned_sw
        | 2 -> Unavail.Unplanned_hw
        | _ -> Unavail.Correlated
      in
      Broker.mark_down broker id kind
    done
  end;
  (* note: an id-keyed attribute is deliberately confined to the churn
     configuration — server ids shift with [servers_per_rack], so the scale
     sweep (churn = false) must stay attribute-free to remain invariant *)
  let attr_of = if churn then fun id -> if id mod 97 = 0 then 1 else 0 else fun _ -> 0 in
  (broker, Snapshot.take ~attr_of broker reservations, reservations)

let scale_snapshot ?churn ~servers_per_rack () =
  let _, snapshot, reservations = scale_broker ?churn ~servers_per_rack () in
  (snapshot, reservations)

(* The continuous loop's first rounds on the region-scale preset at
   [servers_per_rack], through [System] with the heuristic solver: the
   bring-up round, then a round after 200 random hardware failures.
   [f tag stats] sees each round's statistics. *)
let bring_up_then_failures ~servers_per_rack f =
  let region = Generator.generate (params_at ~servers_per_rack) in
  let broker = Broker.create region in
  let config =
    {
      System.default_config with
      System.solver = { Async_solver.default_params with Async_solver.node_limit = 0 };
      job_fill_fraction = 0.0;
    }
  in
  let sys = System.create ~config broker in
  let services =
    List.filter
      (fun s -> s.Ras_workload.Service.id <= 12 || s.Ras_workload.Service.id = 13
                || s.Ras_workload.Service.id = 17)
      Ras_workload.Service.default_catalog
  in
  List.iter (System.add_request sys)
    (Ras_workload.Request_gen.scenario (Ras_stats.Rng.create 11) ~region ~services
       ~target_utilization:0.45);
  f "bring-up" (System.solve_now sys);
  let rng = Ras_stats.Rng.create 24 in
  let n = Broker.num_servers broker in
  for _ = 1 to 200 do
    Broker.mark_down broker (Ras_stats.Rng.int rng n) Unavail.Unplanned_hw
  done;
  f "post-failure" (System.solve_now sys)

(* ---------- aggregation equivalence: streaming vs reference oracle ----- *)

let check_symmetry_equal (a : Symmetry.t) (b : Symmetry.t) =
  Alcotest.(check int) "same class count" (Symmetry.num_classes b) (Symmetry.num_classes a);
  Array.iteri
    (fun i (ca : Symmetry.cls) ->
      let cb = b.Symmetry.classes.(i) in
      Alcotest.(check string) "class name" (Symmetry.class_name cb) (Symmetry.class_name ca);
      Alcotest.(check int) "class index" cb.Symmetry.index ca.Symmetry.index;
      Alcotest.(check (array int)) "class members" cb.Symmetry.members ca.Symmetry.members)
    a.Symmetry.classes

let check_std_equal (a : Model.std) (b : Model.std) =
  Alcotest.(check int) "nvars" b.Model.nvars a.Model.nvars;
  Alcotest.(check int) "nrows" b.Model.nrows a.Model.nrows;
  Alcotest.(check (array string)) "var names" b.Model.var_names a.Model.var_names;
  Alcotest.(check (array string)) "row names" b.Model.row_names a.Model.row_names;
  let farr name xa xb = Alcotest.(check (array (float 0.0))) name xb xa in
  farr "obj" a.Model.obj b.Model.obj;
  Alcotest.(check (float 0.0)) "obj offset" b.Model.obj_offset a.Model.obj_offset;
  farr "lb" a.Model.lb b.Model.lb;
  farr "ub" a.Model.ub b.Model.ub;
  farr "rhs" a.Model.rhs b.Model.rhs;
  Alcotest.(check (array bool)) "integer" b.Model.integer a.Model.integer;
  Alcotest.(check bool) "row senses" true (a.Model.row_sense = b.Model.row_sense);
  Alcotest.(check (array int)) "col_ptr" b.Model.col_ptr a.Model.col_ptr;
  Alcotest.(check (array int)) "col_ind" b.Model.col_ind a.Model.col_ind;
  farr "col_val" a.Model.col_val b.Model.col_val

let test_streaming_matches_reference () =
  let snapshot, reservations = scale_snapshot ~servers_per_rack:1 () in
  let streamed = Symmetry.build snapshot in
  let reference = Oracles.build_reference snapshot in
  check_symmetry_equal streamed reference;
  (* O(1) owner histograms agree with a direct member scan *)
  let owners =
    Broker.Free :: Broker.Shared_buffer
    :: List.filter_map
         (fun (r : Reservation.t) ->
           if Reservation.is_buffer r then None
           else Some (Broker.Reservation r.Reservation.id))
         reservations
  in
  Array.iter
    (fun (c : Symmetry.cls) ->
      List.iter
        (fun owner ->
          let scanned =
            Array.fold_left
              (fun acc id -> if Snapshot.current snapshot id = owner then acc + 1 else acc)
              0 c.Symmetry.members
          in
          Alcotest.(check int) "current_count vs scan" scanned
            (Symmetry.current_count streamed c owner))
        owners)
    streamed.Symmetry.classes;
  (* same compiled model, bit for bit *)
  let std_of sym =
    let f = Formulation.build sym in
    Model.compile f.Formulation.model
  in
  check_std_equal (std_of streamed) (std_of reference);
  (* rack-level builds over a subset of the reservations agree too *)
  let subset =
    {
      snapshot with
      Snapshot.reservations = List.filteri (fun i _ -> i mod 3 <> 0) reservations;
    }
  in
  check_symmetry_equal
    (Symmetry.build ~rack_level:true subset)
    (Oracles.build_reference ~rack_level:true subset)

(* ---------- compile pin: the dense-scratch merge against the table ------ *)

(* A round's compiled models equal [Oracles.compile_reference], the
   per-row table and sort [Model.compile] replaced, bit for bit: both
   rounds' phase-1 models (and phase 2's when it runs), and a rack-level
   phase-2 formulation, rack goals on eight reservations over their
   servers and the free ones.  At 10^6 servers too under RAS_SCALE_TESTS=full. *)
let compile_pin ~servers_per_rack =
  let check tag (mdl : Model.t) std =
    match Oracles.std_difference std (Oracles.compile_reference mdl) with
    | None -> ()
    | Some field ->
      Alcotest.failf "spr=%d %s: compiled %s differs from the reference" servers_per_rack tag field
  in
  bring_up_then_failures ~servers_per_rack (fun tag stats ->
      let check_phase name (p : Phases.result) =
        check (tag ^ " " ^ name) p.Phases.formulation.Formulation.model p.Phases.compiled
      in
      check_phase "phase 1" stats.Async_solver.phase1;
      Option.iter (check_phase "phase 2") stats.Async_solver.phase2);
  let snapshot, reservations = scale_snapshot ~servers_per_rack () in
  let goals =
    List.filteri (fun i _ -> i < 8) (List.filter (fun r -> not (Reservation.is_buffer r)) reservations)
    |> List.map (fun r -> { r with Reservation.rack_spread_limit = Some 0.06 })
  in
  let symmetry =
    Symmetry.build ~rack_level:true { snapshot with Snapshot.reservations = goals }
  in
  let f = Formulation.build ~rack_level:true symmetry in
  check "rack level" f.Formulation.model (Model.compile f.Formulation.model)

let test_compile_pin () =
  compile_pin ~servers_per_rack:1;
  if full_scale () then compile_pin ~servers_per_rack:48

(* ---------- the aggregated model's root LP: kernels and certificate ---------- *)

(* The root LP solves to an optimum that passes the certificate (its point
   and duals alone prove optimality: no tableau oracle runs at this size),
   and on its final factorization, and after updates on top of it, the
   sparse solves equal the all-steps dense ones bit for bit. *)
let test_root_lp_certified_and_pinned () =
  let snapshot, _ = scale_snapshot ~servers_per_rack:1 () in
  let symmetry = Symmetry.build snapshot in
  let f = Formulation.build symmetry in
  let std = Model.compile f.Formulation.model in
  match Simplex.solve std with
  | Simplex.Optimal { x; duals; obj; basis = { Simplex.wcols; wfac = Some fac; _ }; _ } ->
    (match Oracles.lp_certificate std ~x ~duals ~obj with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "region-scale root LP certificate: %s" msg);
    let pinned =
      Test_sparse_kernels.pin_model_basis "region-scale root basis" (Ras_stats.Rng.create 31) std
        fac ~wcols ~samples:40 ~updates:8
    in
    Alcotest.(check bool) (Printf.sprintf "%d solves pinned" pinned) true (pinned >= 600)
  | _ -> Alcotest.fail "region-scale root LP must be optimal"

(* ---------- disaggregation round trip ---------- *)

let round_trip ~servers_per_rack =
  let broker, _, reservations = scale_broker ~servers_per_rack () in
  (* stale targets: intent the owners do not follow yet, on covered servers
     and on down ones the round does not cover *)
  for id = 0 to Broker.num_servers broker - 1 do
    if id mod 997 = 0 then Broker.set_target broker id Broker.Shared_buffer
  done;
  let snapshot = Snapshot.take broker reservations in
  let stats =
    Async_solver.solve
      ~params:{ Async_solver.default_params with Async_solver.node_limit = 0 }
      snapshot
  in
  Test_core.check_status_quo "round trip" stats;
  let result = stats.Async_solver.phase1 in
  let f = result.Phases.formulation in
  let std = result.Phases.compiled in
  let solution = result.Phases.solution in
  Alcotest.(check bool) "solver solution is feasible" true
    (Model.check_solution std solution = Ok ());
  (* class counts -> per-server assignment: the very moves the
     table-and-list oracle picks, the same merged plan, and after the
     apply the target column the oracle's apply of every target writes *)
  let assignment = Formulation.decode f solution in
  let plan = Concretize.plan f assignment in
  let reference = Oracles.concretize_reference f assignment in
  Alcotest.(check bool) "concretize matches the oracle" true (Oracles.plan_matches plan reference);
  let merged = (Oracles.merge_reference stats).Oracles.plan in
  Alcotest.(check bool) "merged plan matches the oracle" true
    (Oracles.plan_matches stats.Async_solver.plan merged);
  let before = Test_core.target_column broker in
  let mover = Online_mover.create broker in
  let apply = Online_mover.apply_plan mover stats.Async_solver.plan in
  Test_core.check_targets "round trip" broker before merged;
  Alcotest.(check bool)
    (Printf.sprintf "%d target writes for %d moves and %d servers" apply.Online_mover.target_writes
       (List.length stats.Async_solver.plan.Concretize.moves) (Broker.num_servers broker))
    true
    (apply.Online_mover.target_writes
    <= List.length stats.Async_solver.plan.Concretize.moves + (Broker.num_servers broker / 997) + 1);
  let target_of = Hashtbl.create 4096 in
  List.iter (fun (id, o) -> Hashtbl.replace target_of id o) reference.Oracles.targets;
  (* re-aggregate the per-server assignment back into per-pair counts.
     Guaranteed reservations own their targets directly; buffer reservations
     pool [Shared_buffer] servers per hardware category, and every class has
     one hardware subtype, so membership is unambiguous per pair. *)
  let count_of (p : Formulation.pair) =
    let res = p.Formulation.res in
    Array.fold_left
      (fun acc id ->
        match Hashtbl.find_opt target_of id with
        | Some Broker.Shared_buffer when Reservation.is_buffer res ->
          if res.Reservation.rru_of (Snapshot.server snapshot id).Region.hw > 0.0 then
            acc + 1
          else acc
        | Some o when o = Reservation.owner res && not (Reservation.is_buffer res) -> acc + 1
        | Some _ | None -> acc)
      0 p.Formulation.cls.Symmetry.members
  in
  let rebuilt = Formulation.encode f count_of in
  Alcotest.(check bool) "re-aggregated solution is feasible" true
    (Model.check_solution std rebuilt = Ok ());
  let obj_orig = Model.objective_value std solution
  and obj_rebuilt = Model.objective_value std rebuilt in
  Alcotest.(check bool)
    (Printf.sprintf "objective preserved (%.6f vs %.6f)" obj_orig obj_rebuilt)
    true
    (Float.abs (obj_orig -. obj_rebuilt) <= 1e-9 *. Float.max 1.0 (Float.abs obj_orig))

let test_disaggregation_round_trip () =
  round_trip ~servers_per_rack:1;
  (* 10^6-server pin: RAS_SCALE_TESTS=full only *)
  if full_scale () then round_trip ~servers_per_rack:48

(* ---------- scale sweep: compiled size independent of raw server count -- *)

let compiled_at ~servers_per_rack =
  let snapshot, _ = scale_snapshot ~churn:false ~servers_per_rack () in
  let symmetry = Symmetry.build snapshot in
  let f = Formulation.build symmetry in
  let std = Model.compile f.Formulation.model in
  let names = Array.map Symmetry.class_name symmetry.Symmetry.classes in
  (Snapshot.num_servers snapshot, names, std)

let test_scale_invariance () =
  let sweep = if full_scale () then [ 1; 5; 48 ] else [ 1; 5 ] in
  let results = List.map (fun spr -> (spr, compiled_at ~servers_per_rack:spr)) sweep in
  let _, (_, names0, std0) = List.hd results in
  List.iter
    (fun (spr, (n, names, std)) ->
      Alcotest.(check int)
        (Printf.sprintf "server count at spr=%d" spr)
        (20_880 * spr) n;
      Alcotest.(check (array string))
        (Printf.sprintf "identical class names at spr=%d" spr)
        names0 names;
      Alcotest.(check int) (Printf.sprintf "identical nvars at spr=%d" spr)
        std0.Model.nvars std.Model.nvars;
      Alcotest.(check int) (Printf.sprintf "identical nrows at spr=%d" spr)
        std0.Model.nrows std.Model.nrows)
    results;
  (* the Fig. 10/11 regime: a region-scale model compiles to thousands of
     variables, not millions *)
  Alcotest.(check bool) "compiled size in the aggregated regime" true
    (std0.Model.nvars < 20_000 && std0.Model.nrows < 20_000);
  if full_scale () then begin
    (* and the full 10^6-server pipeline solves end to end *)
    let snapshot, _ = scale_snapshot ~servers_per_rack:48 () in
    let result =
      Phases.run ~params:{ Phases.default_params with node_limit = 0 } snapshot
    in
    Alcotest.(check bool) "million-server heuristic solve is feasible" true
      (Model.check_solution result.Phases.compiled result.Phases.solution = Ok ());
    Alcotest.(check bool) "million-server status quo is feasible" true
      (Model.check_solution result.Phases.compiled
         (Formulation.status_quo result.Phases.formulation)
      = Ok ())
  end

(* ---------- root LP: crash basis at the status quo ---------- *)

(* The root LP of a round after failures, started from the crash basis at
   the status quo as [Phases] starts it, takes at most half the pivots of
   a cold start and reaches the same objective (the vertex may differ:
   alternative optima).  spr=1 in [dune runtest], 10^6 servers under
   RAS_SCALE_TESTS=full. *)
let test_crash_root_lp_after_failures () =
  let servers_per_rack = if full_scale () then 48 else 1 in
  bring_up_then_failures ~servers_per_rack (fun tag stats ->
      Test_core.check_status_quo tag stats;
      let p1 = stats.Async_solver.phase1 in
      let std = p1.Phases.compiled in
      if tag = "post-failure" then
        match Simplex.solve std with
        | Simplex.Optimal { obj = cold_obj; iterations = cold; _ } ->
          (match
             Simplex.solve
               ~basis:(Simplex.crash std (Formulation.status_quo p1.Phases.formulation))
               std
           with
          | Simplex.Optimal { obj; iterations; _ } ->
            Alcotest.(check int) "Phases reports the crash-started pivots" iterations
              p1.Phases.root_lp_pivots;
            Alcotest.(check bool)
              (Printf.sprintf "spr=%d: crash %d pivots <= 1/2 of cold %d" servers_per_rack
                 iterations cold)
              true
              (2 * iterations <= cold);
            Alcotest.(check bool)
              (Printf.sprintf "objective %.12g vs cold %.12g" obj cold_obj)
              true
              (Float.abs (obj -. cold_obj) <= 1e-9 *. Float.max 1.0 (Float.abs cold_obj))
          | _ -> Alcotest.fail "crash-started root LP not optimal")
        | _ -> Alcotest.fail "cold root LP not optimal")

(* ---------- expression (1): the bound split against the pos-part row ---------- *)

(* Both rounds of the region-scale loop, phase 1 and phase 2 when it runs:
   each model has one row fewer per held pair than
   [Oracles.formulation_reference]'s, and the same root-LP optimum to
   1e-9 relative ([Test_core.check_split_root_lp]).  spr=1 in [dune
   runtest], 10^6 servers under RAS_SCALE_TESTS=full. *)
let test_split_root_lps () =
  let at servers_per_rack =
    bring_up_then_failures ~servers_per_rack (fun tag stats ->
        let check name (p : Phases.result) =
          ignore
            (Test_core.check_split_root_lp
               (Printf.sprintf "spr=%d %s %s" servers_per_rack tag name)
               p.Phases.formulation)
        in
        check "phase 1" stats.Async_solver.phase1;
        Option.iter (check "phase 2") stats.Async_solver.phase2)
  in
  at 1;
  if full_scale () then at 48

(* ---------- primal heuristic: pair-indexed table vs the oracle ---------- *)

(* The bring-up phase-1 model (surge-mid's servers_per_rack = 8 under
   RAS_SCALE_TESTS=full): rounding and repair of its root-LP optimum and
   of a perturbed copy make every decision the Hashtbl oracle makes.  The
   root-LP optimum rounds to a solution the spread and affinity searches
   leave alone (0 moves each at full scale); on the perturbed copy the
   affinity search is long, so its move count is pinned too. *)
let test_heuristic_matches_reference () =
  let servers_per_rack = if full_scale () then 8 else 1 in
  let snapshot, _ = scale_snapshot ~churn:false ~servers_per_rack () in
  let f = Formulation.build (Symmetry.build snapshot) in
  match Simplex.solve (Model.compile f.Formulation.model) with
  | Simplex.Optimal { x; _ } ->
    let total = { Oracles.free = 0; donor = 0; spread = 0; affinity = 0 } in
    let matches name y =
      Alcotest.(check bool) (name ^ " matches the oracle") true
        (Oracles.heuristic_matches ~total f y)
    in
    matches "root-LP optimum" x;
    matches "perturbed optimum" (Oracles.perturb_lp (Ras_stats.Rng.create 7) f ~fill:false x);
    if full_scale () then
      Alcotest.(check bool)
        (Printf.sprintf "affinity moves at spr=8 (%d)" total.Oracles.affinity)
        true
        (total.Oracles.affinity >= 100)
  | _ -> Alcotest.fail "root LP should solve"

(* ---------- memory ceilings ---------- *)

(* Allocation during Formulation.build + Model.compile must track model
   size, not raw server count: 5x the servers with the same class structure
   may not cost more than ~1.5x the build allocation. *)
let test_build_allocation_scale_independent () =
  let measure ~servers_per_rack =
    let snapshot, _ = scale_snapshot ~churn:false ~servers_per_rack () in
    let symmetry = Symmetry.build snapshot in
    (* warm up so one-time lazy setup is not billed to either measurement *)
    ignore (Formulation.build symmetry);
    let before = Gc.allocated_bytes () in
    let f = Formulation.build symmetry in
    let std = Model.compile f.Formulation.model in
    let after = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity std);
    after -. before
  in
  let small = measure ~servers_per_rack:1 in
  let large = measure ~servers_per_rack:5 in
  Alcotest.(check bool)
    (Printf.sprintf "5x servers => %.2fx build allocation (limit 1.5x)" (large /. small))
    true
    (large <= 1.5 *. small)

(* [Symmetry.build] allocates its one-word-per-server group column, the
   member arrays (one word per covered server) and O(classes + owner
   runs): per server nothing else, so a key record or a table entry per
   server breaks the limit, 2 words per server plus 64 per class and 16
   per owner run.  At 5x the servers, with the same classes. *)
let test_symmetry_build_words () =
  List.iter
    (fun servers_per_rack ->
      let snapshot, _ = scale_snapshot ~servers_per_rack () in
      ignore (Symmetry.build snapshot);
      Gc.minor ();
      let w0 = Test_core.allocated_words () in
      let symmetry = Symmetry.build snapshot in
      let words = Test_core.allocated_words () -. w0 in
      let n = Snapshot.num_servers snapshot in
      let classes = Symmetry.num_classes symmetry in
      let runs = Array.length symmetry.Symmetry.owner_counts.Symmetry.codes in
      let limit = float_of_int ((2 * n) + (64 * classes) + (16 * runs)) in
      Alcotest.(check bool)
        (Printf.sprintf "spr=%d: %.0f words for %d servers, %d classes, %d owner runs (limit %.0f)"
           servers_per_rack words n classes runs limit)
        true (words <= limit))
    [ 1; 5 ]

(* The columnar stores must cost O(1) words per server: snapshot columns
   (owner codes + attr ints, the in-use and down byte columns) and
   symmetry member arrays plus per-class tables. *)
let test_live_words_per_server () =
  let servers_per_rack = 5 in
  let snapshot, _ = scale_snapshot ~servers_per_rack () in
  let n = Snapshot.num_servers snapshot in
  let words o = Obj.reachable_words (Obj.repr o) in
  let snapshot_words =
    words snapshot.Snapshot.current + words snapshot.Snapshot.in_use
    + words snapshot.Snapshot.down + words snapshot.Snapshot.attr
  in
  (* two int columns (1 word/server) + two byte columns (1/8 word/server) *)
  Alcotest.(check bool)
    (Printf.sprintf "snapshot columns: %.2f words/server (limit 2.25)"
       (float_of_int snapshot_words /. float_of_int n))
    true
    (snapshot_words <= (9 * n / 4) + 1024);
  let symmetry = Symmetry.build snapshot in
  let symmetry_words =
    words symmetry.Symmetry.classes + words symmetry.Symmetry.owner_counts
  in
  (* member id arrays (1 word/usable server) + class records + histograms *)
  Alcotest.(check bool)
    (Printf.sprintf "symmetry: %.2f words/server (limit 2 + 256K)"
       (float_of_int symmetry_words /. float_of_int n))
    true
    (symmetry_words <= (2 * n) + (256 * 1024))

let suite =
  [
    Alcotest.test_case "streaming symmetry build matches the reference oracle" `Quick
      test_streaming_matches_reference;
    Alcotest.test_case "aggregated model solves identically in sparse and dense solves, certified" `Quick
      test_root_lp_certified_and_pinned;
    Alcotest.test_case "disaggregation round trip preserves feasibility and objective" `Slow
      test_disaggregation_round_trip;
    Alcotest.test_case "compiled model size is invariant in raw server count" `Slow
      test_scale_invariance;
    Alcotest.test_case "crash-started root LP halves the cold pivots after failures" `Slow
      test_crash_root_lp_after_failures;
    Alcotest.test_case "heuristic matches the Hashtbl oracle on the bring-up model" `Slow
      test_heuristic_matches_reference;
    Alcotest.test_case "build allocation is bounded by model size, not server count" `Slow
      test_build_allocation_scale_independent;
    Alcotest.test_case "columnar stores cost O(1) words per server" `Quick
      test_live_words_per_server;
    Alcotest.test_case "symmetry build allocates its group column plus O(classes)" `Quick
      test_symmetry_build_words;
    Alcotest.test_case "round models compile bit-identical to the table-and-sort compile" `Slow
      test_compile_pin;
    Alcotest.test_case "stability bound split: round root LPs match the pos-part reference" `Slow
      test_split_root_lps;
  ]
