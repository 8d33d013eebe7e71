(* Cross-cutting property tests: concretization realizes solver counts with
   minimal movement, the simplex survives badly-scaled data, and the whole
   simulated system is deterministic in its seeds. *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Region = Ras_topology.Region
module Service = Ras_workload.Service
module Model = Ras_mip.Model
module Lin_expr = Ras_mip.Lin_expr
module Simplex = Ras_mip.Simplex

(* ---------- concretize: counts realized, movement minimal ---------- *)

let fixture () =
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
  (* put the broker in a non-trivial starting state *)
  ignore (Ras_twine.Greedy.fulfill broker requests);
  let snapshot = Snapshot.take broker reservations in
  let symmetry = Symmetry.build snapshot in
  Formulation.build symmetry reservations

let owner_of (res : Reservation.t) =
  match res.Reservation.kind with
  | Reservation.Guaranteed -> Broker.Reservation res.Reservation.id
  | Reservation.Random_failure_buffer _ -> Broker.Shared_buffer

let prop_concretize_realizes_random_counts =
  QCheck.Test.make ~name:"concretize realizes random counts with minimal movement" ~count:25
    QCheck.int
    (fun seed ->
      let f = fixture () in
      let rng = Ras_stats.Rng.create seed in
      (* random feasible counts: walk classes, hand out supply to random
         acceptable reservations *)
      let counts = Hashtbl.create 64 in
      Array.iter
        (fun (cls : Symmetry.cls) ->
          let pairs =
            List.filter (fun (p : Formulation.pair) -> p.Formulation.cls == cls) f.Formulation.pairs
          in
          if pairs <> [] then begin
            let budget = ref (Symmetry.size cls) in
            List.iter
              (fun (p : Formulation.pair) ->
                if !budget > 0 then begin
                  let take = Ras_stats.Rng.int rng (!budget + 1) in
                  if take > 0 then begin
                    Hashtbl.replace counts
                      (cls.Symmetry.index, p.Formulation.res.Reservation.id)
                      take;
                    budget := !budget - take
                  end
                end)
              pairs
          end)
        f.Formulation.symmetry.Symmetry.classes;
      let count_of (p : Formulation.pair) =
        try Hashtbl.find counts (p.Formulation.cls.Symmetry.index, p.Formulation.res.Reservation.id)
        with Not_found -> 0
      in
      let solution = Formulation.encode f count_of in
      let assignment = Formulation.decode f solution in
      let plan = Concretize.plan f assignment in
      let target_of = Hashtbl.create 256 in
      List.iter (fun (id, o) -> Hashtbl.replace target_of id o) plan.Concretize.targets;
      let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
      (* 1. realized counts match (buffer reservations pool per category, so
         check guaranteed ones exactly) *)
      let realized_ok =
        List.for_all
          (fun (p : Formulation.pair) ->
            Reservation.is_buffer p.Formulation.res
            ||
            let owner = owner_of p.Formulation.res in
            let got =
              Array.fold_left
                (fun acc id ->
                  if Hashtbl.find_opt target_of id = Some owner then acc + 1 else acc)
                0 p.Formulation.cls.Symmetry.members
            in
            got = count_of p)
          f.Formulation.pairs
      in
      (* 2. movement minimality: per guaranteed pair, exactly
         max(0, N0 - n) members leave the owner *)
      let movement_ok =
        List.for_all
          (fun (p : Formulation.pair) ->
            Reservation.is_buffer p.Formulation.res
            ||
            let owner = owner_of p.Formulation.res in
            let n0 = Symmetry.current_count f.Formulation.symmetry p.Formulation.cls owner in
            let stayed =
              Array.fold_left
                (fun acc id ->
                  if
                    Snapshot.current snapshot id = owner
                    && Hashtbl.find_opt target_of id = Some owner
                  then acc + 1
                  else acc)
                0 p.Formulation.cls.Symmetry.members
            in
            stayed = min n0 (count_of p))
          f.Formulation.pairs
      in
      realized_ok && movement_ok)

(* ---------- symmetry aggregation invariants ---------- *)

(* Randomized regions with random churn (greedy fulfillment, failures of
   every kind, a random-modulus placement attribute) exercise the streaming
   aggregation path far from the presets. *)
let aggregation_scenario seed =
  let module R = Ras_stats.Rng in
  let rng = R.create seed in
  let params =
    {
      Generator.name = "prop-agg";
      Generator.num_dcs = 1 + R.int rng 3;
      msbs_per_dc = 1 + R.int rng 3;
      racks_per_msb = 1 + R.int rng 4;
      servers_per_rack = 1 + R.int rng 6;
      seed = R.int rng 10_000;
    }
  in
  let region = Generator.generate params in
  let broker = Broker.create region in
  let requests =
    Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
      ~target_utilization:(0.2 +. R.float rng 0.4)
  in
  let reservations =
    List.map Reservation.of_request requests
    @ Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  ignore (Ras_twine.Greedy.fulfill broker requests);
  let n = Broker.num_servers broker in
  for _ = 1 to R.int rng (1 + (n / 10)) do
    let id = R.int rng n in
    let kind =
      match R.int rng 4 with
      | 0 -> Ras_failures.Unavail.Planned_maintenance
      | 1 -> Ras_failures.Unavail.Unplanned_sw
      | 2 -> Ras_failures.Unavail.Unplanned_hw
      | _ -> Ras_failures.Unavail.Correlated
    in
    Broker.mark_down broker id kind
  done;
  let attr_mod = 2 + R.int rng 8 in
  let attr_of id = if id mod attr_mod = 0 then 1 else 0 in
  (Snapshot.take ~attr_of broker reservations, reservations)

let prop_aggregation_invariants =
  QCheck.Test.make ~name:"symmetry aggregation invariants (200-seed corpus)" ~count:200
    QCheck.int
    (fun seed ->
      let snapshot, reservations = aggregation_scenario seed in
      let sym = Symmetry.build snapshot in
      let reference = Oracles.build_reference snapshot in
      (* 1. the streaming build matches the materializing oracle *)
      let matches_reference =
        Symmetry.num_classes sym = Symmetry.num_classes reference
        && Array.for_all2
             (fun (a : Symmetry.cls) (b : Symmetry.cls) ->
               Symmetry.class_name a = Symmetry.class_name b
               && a.Symmetry.members = b.Symmetry.members)
             sym.Symmetry.classes reference.Symmetry.classes
      in
      (* 2. class counts sum to the usable server count *)
      let usable = ref 0 in
      for id = 0 to Snapshot.num_servers snapshot - 1 do
        if Snapshot.usable_at snapshot id then incr usable
      done;
      let counts_sum = Symmetry.total_members sym = !usable in
      (* 3. members really are interchangeable with the representative:
         identical hardware subtype, in-use flag and attribute, so any
         per-class capacity is the representative's value times the count *)
      let representative_ok =
        Array.for_all
          (fun (c : Symmetry.cls) ->
            let hw = Symmetry.hw_of c in
            Array.for_all
              (fun id ->
                let v = Snapshot.view snapshot id in
                v.Snapshot.server.Region.hw.Ras_topology.Hardware.index
                = hw.Ras_topology.Hardware.index
                && v.Snapshot.in_use = c.Symmetry.in_use
                && v.Snapshot.attr = c.Symmetry.attr)
              c.Symmetry.members)
          sym.Symmetry.classes
      in
      let capacity_ok =
        List.for_all
          (fun (res : Reservation.t) ->
            Array.for_all
              (fun (c : Symmetry.cls) ->
                let per = res.Reservation.rru_of (Symmetry.hw_of c) in
                let summed =
                  Array.fold_left
                    (fun acc id ->
                      acc +. res.Reservation.rru_of (Snapshot.server snapshot id).Region.hw)
                    0.0 c.Symmetry.members
                in
                Float.abs (summed -. (per *. float_of_int (Symmetry.size c)))
                <= 1e-9 *. (1.0 +. Float.abs summed))
              sym.Symmetry.classes)
          reservations
      in
      (* 4. the O(1) owner histograms cover every member exactly once *)
      let histogram_ok =
        Array.for_all
          (fun (c : Symmetry.cls) ->
            let tbl = sym.Symmetry.owner_counts.(c.Symmetry.index) in
            Hashtbl.fold (fun _ k acc -> acc + k) tbl 0 = Symmetry.size c)
          sym.Symmetry.classes
      in
      (* 5. aggregation o disaggregation is the identity on the current
         assignment: encoding the status quo and concretizing it moves
         nothing *)
      let f = Formulation.build sym reservations in
      let assignment = Formulation.decode f (Formulation.status_quo f) in
      let plan = Concretize.plan f assignment in
      let identity_ok =
        plan.Concretize.moves = []
        && List.for_all
             (fun (id, o) -> Snapshot.current snapshot id = o)
             plan.Concretize.targets
      in
      matches_reference && counts_sum && representative_ok && capacity_ok && histogram_ok
      && identity_ok)

(* ---------- simplex under bad scaling ---------- *)

let prop_simplex_survives_bad_scaling =
  QCheck.Test.make ~name:"simplex handles wide coefficient ranges" ~count:100 QCheck.int
    (fun seed ->
      let module R = Ras_stats.Rng in
      let rng = R.create seed in
      let n = 2 + R.int rng 3 in
      let m = Model.create () in
      let scale_of () = [| 1e-2; 1.0; 1e2; 1e4 |].(R.int rng 4) in
      let vars = Array.init n (fun _ -> Model.add_var ~ub:(10.0 *. scale_of ()) m) in
      let point = Array.init n (fun i -> Ras_stats.Rng.float rng (Model.var_bounds m vars.(i) |> snd)) in
      for _ = 1 to 1 + R.int rng 3 do
        let cs = Array.init n (fun _ -> scale_of () *. float_of_int (R.int rng 9 - 4)) in
        let lhs = ref 0.0 in
        Array.iteri (fun i c -> lhs := !lhs +. (c *. point.(i))) cs;
        let e = Lin_expr.of_terms (List.init n (fun i -> (cs.(i), vars.(i)))) in
        ignore (Model.add_constraint m e Model.Le (!lhs +. Float.abs !lhs *. 0.01 +. 1.0))
      done;
      Model.set_objective m
        (Lin_expr.of_terms (List.init n (fun i -> (float_of_int (R.int rng 9 - 4), vars.(i)))));
      let std = Model.compile m in
      match Simplex.solve std with
      | Simplex.Optimal { x; _ } ->
        (* relative feasibility: residuals scale with row magnitude *)
        let ok = ref true in
        for i = 0 to std.Model.nrows - 1 do
          let lhs = ref 0.0 and mag = ref 1.0 in
          Array.iteri
            (fun k j ->
              let term = std.Model.row_coefs.(i).(k) *. x.(j) in
              lhs := !lhs +. term;
              mag := !mag +. Float.abs term)
            std.Model.row_cols.(i);
          let slack = std.Model.rhs.(i) -. !lhs in
          (match std.Model.row_sense.(i) with
          | Model.Le -> if slack < -1e-6 *. !mag then ok := false
          | Model.Ge -> if slack > 1e-6 *. !mag then ok := false
          | Model.Eq -> if Float.abs slack > 1e-6 *. !mag then ok := false)
        done;
        !ok
      | Simplex.Unbounded -> true
      | Simplex.Infeasible _ | Simplex.Iteration_limit _ -> false)

(* ---------- Devex pricing invariants ---------- *)

(* Feasible-by-construction bounded random LP: finite boxes and rows
   anchored on an interior point, so every solve is Optimal and the Devex
   machinery actually pivots. *)
let random_bounded_lp seed =
  let module R = Ras_stats.Rng in
  let rng = R.create seed in
  let n = 3 + R.int rng 10 in
  let mrows = 2 + R.int rng 8 in
  let m = Model.create () in
  let lbs = Array.make n 0.0 and ubs = Array.make n 0.0 in
  let vars =
    Array.init n (fun j ->
        let lo = R.float rng 10.0 -. 5.0 in
        let hi = lo +. 1.0 +. R.float rng 9.0 in
        lbs.(j) <- lo;
        ubs.(j) <- hi;
        Model.add_var ~lb:lo ~ub:hi m)
  in
  let point = Array.init n (fun j -> lbs.(j) +. R.float rng (ubs.(j) -. lbs.(j))) in
  for _ = 1 to mrows do
    let k = 1 + R.int rng (min 6 n) in
    let picked = Array.init n (fun i -> i) in
    R.shuffle rng picked;
    let terms =
      List.init k (fun t ->
          ((1.0 +. R.float rng 4.0) *. (if R.bool rng then 1.0 else -1.0), picked.(t)))
    in
    let at_point = List.fold_left (fun acc (c, j) -> acc +. (c *. point.(j))) 0.0 terms in
    let e = Lin_expr.of_terms (List.map (fun (c, j) -> (c, vars.(j))) terms) in
    let sense, rhs =
      match R.int rng 5 with
      | 0 -> (Model.Eq, at_point)
      | 1 | 2 -> (Model.Le, at_point +. R.float rng 5.0)
      | _ -> (Model.Ge, at_point -. R.float rng 5.0)
    in
    ignore (Model.add_constraint m e sense rhs)
  done;
  Model.set_objective m
    (Lin_expr.of_terms (List.init n (fun j -> (R.float rng 10.0 -. 5.0, vars.(j)))));
  Model.compile m

(* Reference-framework weights start at 1 and only ever grow through
   max-updates, so the minimum over all columns must stay >= 1 after every
   single pivot — checked via the solver's trace hook. *)
let prop_devex_weights_ge_one =
  QCheck.Test.make ~name:"devex weights stay >= 1 after every pivot" ~count:100 QCheck.int
    (fun seed ->
      let std = random_bounded_lp seed in
      let ok = ref true and pivots = ref 0 in
      let trace ~iteration:_ ~min_devex_weight =
        incr pivots;
        if min_devex_weight < 1.0 then ok := false
      in
      match Simplex.solve ~pricing:Simplex.Devex ~trace std with
      | Simplex.Optimal _ -> !ok
      | _ -> false)

(* ---------- whole-system determinism ---------- *)

let run_system () =
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
      Ras_failures.Failure_model.default_params ~horizon_days:0.5
  in
  System.install_failures sys failures;
  System.start sys;
  System.run sys ~until_h:12.0;
  let m = System.metrics sys in
  List.map
    (fun name ->
      match Ras_sim.Metrics.find m name with
      | Some s -> (name, Ras_stats.Timeseries.points s)
      | None -> (name, [||]))
    [ "max_msb_share"; "moves_unused"; "unavailable_frac"; "free_servers" ]

let test_system_deterministic () =
  let a = run_system () and b = run_system () in
  List.iter2
    (fun (name_a, pts_a) (name_b, pts_b) ->
      Alcotest.(check string) "same series" name_a name_b;
      Alcotest.(check int) (name_a ^ " same length") (Array.length pts_a) (Array.length pts_b);
      Array.iteri
        (fun i (t, v) ->
          let t', v' = pts_b.(i) in
          Alcotest.(check (float 1e-12)) (name_a ^ " time") t t';
          Alcotest.(check (float 1e-12)) (name_a ^ " value") v v')
        pts_a)
    a b

let suite =
  [
    QCheck_alcotest.to_alcotest prop_concretize_realizes_random_counts;
    QCheck_alcotest.to_alcotest prop_aggregation_invariants;
    QCheck_alcotest.to_alcotest prop_simplex_survives_bad_scaling;
    QCheck_alcotest.to_alcotest prop_devex_weights_ge_one;
    Alcotest.test_case "system runs are deterministic" `Slow test_system_deterministic;
  ]
