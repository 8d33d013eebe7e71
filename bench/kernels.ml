(* Solver kernel benchmarks.

   Two layers:
   - Bechamel micro-benchmarks of the build kernels behind the timing
     figures (7, 8, 10, 11): simplex LP solve, symmetry grouping,
     formulation build, model compile, and a full phase-1 solve.
   - Direct wall-clock benchmarks of the LP/MIP hot path on the Table-1
     scenario sizes: LP pivots/sec under full-Dantzig vs Devex pricing,
     under the dense-inverse vs LU+eta basis backends and under the
     hypersparse vs dense-oracle kernels, one LU refactorization of the
     root basis, and branch-and-bound nodes/sec with warm dual-simplex
     restarts on the factorized basis.  Each pair prints its speedup and
     agreement; nothing is asserted.

   Every result row is also appended to BENCH_kernels.json (kernel name,
   size, wall time, rates) so future changes have a perf trajectory to
   compare against. *)

open Bechamel
open Toolkit
module Simplex = Ras_mip.Simplex
module Branch_bound = Ras_mip.Branch_bound
module Model = Ras_mip.Model

(* ---------------------------------------------------------------- *)
(* JSON result sink                                                  *)

let json_entries : string list ref = ref []

let record ~kernel ~size ~wall_s fields =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) fields)
  in
  json_entries :=
    Printf.sprintf "  {\"kernel\": %S, \"size\": %S, \"wall_s\": %.6f%s}" kernel size wall_s
      extra
    :: !json_entries

let flt v = Printf.sprintf "%.6g" v

let write_json () =
  let oc = open_out "BENCH_kernels.json" in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.rev !json_entries));
  output_string oc "\n]\n";
  close_out oc;
  Report.row "results written to BENCH_kernels.json (%d entries)\n"
    (List.length !json_entries)

(* ---------------------------------------------------------------- *)
(* Problem builders                                                  *)

let lp_problem () =
  (* a representative mid-size LP: transportation-like structure *)
  let m = Ras_mip.Model.create () in
  let n_src = 12 and n_dst = 10 in
  let vars =
    Array.init n_src (fun i ->
        Array.init n_dst (fun j ->
            Ras_mip.Model.add_var ~name:(Printf.sprintf "x%d_%d" i j) ~ub:50.0 m))
  in
  for i = 0 to n_src - 1 do
    let e = Ras_mip.Lin_expr.of_terms (List.init n_dst (fun j -> (1.0, vars.(i).(j)))) in
    ignore (Ras_mip.Model.add_constraint m e Ras_mip.Model.Le 40.0)
  done;
  for j = 0 to n_dst - 1 do
    let e = Ras_mip.Lin_expr.of_terms (List.init n_src (fun i -> (1.0, vars.(i).(j)))) in
    ignore (Ras_mip.Model.add_constraint m e Ras_mip.Model.Ge 20.0)
  done;
  let obj =
    Ras_mip.Lin_expr.of_terms
      (List.concat
         (List.init n_src (fun i ->
              List.init n_dst (fun j -> (float_of_int (((i * 7) + (j * 3)) mod 11), vars.(i).(j))))))
  in
  Ras_mip.Model.set_objective m obj;
  Ras_mip.Model.compile m

let scenario_snapshot preset =
  let region = Scenarios.region_of preset in
  let broker = Ras_broker.Broker.create region in
  let requests = Scenarios.requests_of preset region in
  let reservations =
    List.map Ras.Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  Ras.Snapshot.take broker reservations

let scenario_formulation preset =
  let snapshot = scenario_snapshot preset in
  let symmetry = Ras.Symmetry.build snapshot in
  let formulation = Ras.Formulation.build symmetry snapshot.Ras.Snapshot.reservations in
  (formulation, Ras_mip.Model.compile formulation.Ras.Formulation.model)

let scenario_std preset = snd (scenario_formulation preset)

let size_of (std : Model.std) = Printf.sprintf "nvars=%d nrows=%d" std.Model.nvars std.Model.nrows

(* ---------------------------------------------------------------- *)
(* LP kernel: pivots/sec under the two pricing schemes               *)

let lp_kernel ~label ~repeats ?(with_dense = true) (std : Model.std) =
  let ws = Simplex.create_workspace () in
  let run pricing backend =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    let status = ref "?" and obj = ref nan in
    let ks = ref { Simplex.avg_ftran_nnz = 0.0; avg_btran_nnz = 0.0; bound_flips = 0 } in
    for _ = 1 to repeats do
      match Simplex.solve ~pricing ~backend ~ws std with
      | Simplex.Optimal { iterations; obj = o; kstats; _ } ->
        iters := !iters + iterations;
        obj := o;
        ks := kstats;
        status := "optimal"
      | Simplex.Infeasible _ -> status := "infeasible"
      | Simplex.Unbounded -> status := "unbounded"
      | Simplex.Iteration_limit _ -> status := "iteration-limit"
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, !iters, !status, !obj, !ks)
  in
  let rates = Hashtbl.create 4 and objs = Hashtbl.create 4 in
  let pivots = Hashtbl.create 4 and walls = Hashtbl.create 4 in
  List.iter
    (fun (mode, pricing, backend) ->
      let dt, iters, status, obj, ks = run pricing backend in
      let name = Printf.sprintf "lp-%s-%s" label mode in
      let rate = float_of_int iters /. dt in
      Hashtbl.replace rates mode rate;
      Hashtbl.replace objs mode obj;
      Hashtbl.replace pivots mode iters;
      Hashtbl.replace walls mode dt;
      Report.row
        "%-34s %8.3fs  %6d pivots  %9.0f pivots/s  %6.1f LP/s  ftran %.1f / btran %.1f nnz  [%s]\n"
        name dt iters rate
        (float_of_int repeats /. dt)
        ks.Simplex.avg_ftran_nnz ks.Simplex.avg_btran_nnz status;
      record ~kernel:name ~size:(size_of std) ~wall_s:dt
        [
          ("pivots", string_of_int iters);
          ("pivots_per_sec", flt rate);
          ("lps_per_sec", flt (float_of_int repeats /. dt));
          ("avg_ftran_nnz", flt ks.Simplex.avg_ftran_nnz);
          ("avg_btran_nnz", flt ks.Simplex.avg_btran_nnz);
          ("bound_flips", string_of_int ks.Simplex.bound_flips);
        ])
    ([
       ("dantzig-pricing", Simplex.Dantzig, Ras_mip.Basis.Lu);
       ("devex-pricing", Simplex.Devex, Ras_mip.Basis.Lu);
     ]
    @ (if with_dense then [ ("dense-inverse", Simplex.Devex, Ras_mip.Basis.Dense) ] else [])
    @ [ ("dense-oracle-kernels", Simplex.Devex, Ras_mip.Basis.Lu_full_scan) ]);
  (* sparse-vs-dense kernels: same pricing, same LU factors — only the
     triangular-solve traversal differs, so the pivot counts must be
     identical (the differential pin) and the speedup is pure kernel
     win. *)
  let sp_wall = Hashtbl.find walls "devex-pricing" in
  let dk_wall = Hashtbl.find walls "dense-oracle-kernels" in
  let sp_piv = Hashtbl.find pivots "devex-pricing" in
  let dk_piv = Hashtbl.find pivots "dense-oracle-kernels" in
  let sp_obj = Hashtbl.find objs "devex-pricing" in
  let dk_obj = Hashtbl.find objs "dense-oracle-kernels" in
  let kernels_obj_agree =
    (Float.is_nan sp_obj && Float.is_nan dk_obj)
    || Float.abs (sp_obj -. dk_obj) <= 1e-9 *. Float.max 1.0 (Float.abs dk_obj)
  in
  Report.row "%-34s %.2fx wall speedup, pivots equal: %b, objectives agree: %b\n"
    (Printf.sprintf "lp-%s sparse-vs-dense-kernels" label)
    (dk_wall /. sp_wall) (sp_piv = dk_piv) kernels_obj_agree;
  record
    ~kernel:(Printf.sprintf "lp-%s-sparse-vs-dense-kernels" label)
    ~size:(size_of std) ~wall_s:0.0
    [
      ("wall_speedup", flt (dk_wall /. sp_wall));
      ("pivots_equal", string_of_bool (sp_piv = dk_piv));
      ("objectives_agree", string_of_bool kernels_obj_agree);
      ("sparse_pivots", string_of_int sp_piv);
      ("dense_oracle_pivots", string_of_int dk_piv);
    ];
  (* eta-vs-dense: same pricing scheme, the basis backend is the only
     difference.  The dense inverse refactorizes in O(m^3), so this variant
     only runs where [with_dense] allows it. *)
  if with_dense then begin
    let lu_rate = Hashtbl.find rates "devex-pricing" in
    let dn_rate = Hashtbl.find rates "dense-inverse" in
    let lu_obj = Hashtbl.find objs "devex-pricing" in
    let dn_obj = Hashtbl.find objs "dense-inverse" in
    let obj_agree =
      (Float.is_nan lu_obj && Float.is_nan dn_obj)
      || Float.abs (lu_obj -. dn_obj) <= 1e-4 *. Float.max 1.0 (Float.abs dn_obj)
    in
    Report.row "%-34s %.2fx pivots/s speedup, objectives agree: %b\n"
      (Printf.sprintf "lp-%s eta-vs-dense" label)
      (lu_rate /. dn_rate) obj_agree;
    record
      ~kernel:(Printf.sprintf "lp-%s-eta-vs-dense" label)
      ~size:(size_of std) ~wall_s:0.0
      [
        ("pivots_per_sec_ratio", flt (lu_rate /. dn_rate));
        ("objectives_agree", string_of_bool obj_agree);
      ]
  end;
  (* pricing-rule comparison on the same (LU) backend: total pivot counts,
     not just rates, so iteration-count claims live in the JSON.  A
     pivots(devex)/pivots(dantzig) ratio < 1 means Devex saved pivots. *)
  let zp = Hashtbl.find pivots "dantzig-pricing" in
  let dp = Hashtbl.find pivots "devex-pricing" in
  let ratio = float_of_int dp /. float_of_int (max 1 zp) in
  Report.row "%-34s pivots dantzig=%d devex=%d (devex/dantzig %.3f)\n"
    (Printf.sprintf "lp-%s pricing-rules" label)
    zp dp ratio;
  record
    ~kernel:(Printf.sprintf "lp-%s-devex-vs-dantzig" label)
    ~size:(size_of std) ~wall_s:0.0
    [
      ("dantzig_pivots", string_of_int zp);
      ("devex_pivots", string_of_int dp);
      ("pivot_ratio_devex_over_dantzig", flt ratio);
      ( "pivots_per_sec_ratio_devex_over_dantzig",
        flt (Hashtbl.find rates "devex-pricing" /. Hashtbl.find rates "dantzig-pricing") );
    ]

(* ---------------------------------------------------------------- *)
(* LU refactorization: one Markowitz elimination of the root basis   *)

(* Cost of one [Basis.refactorize] of the lp row's optimal root basis
   (median of [repeats]), next to how often a cold root LP pays it, so the
   refactorization share of the LP is readable from the JSON. *)
let lu_refactor_kernel ~label ~repeats (std : Model.std) =
  let name = Printf.sprintf "lu-refactor-%s" label in
  match Simplex.solve std with
  | Simplex.Optimal { basis = { Simplex.wcols; wfac; _ }; _ } ->
    let module Basis = Ras_mip.Basis in
    let m = std.Model.nrows in
    let col = Simplex.iter_column std in
    let nnz =
      Array.fold_left
        (fun acc j ->
          acc + if j < std.Model.nvars then std.Model.col_ptr.(j + 1) - std.Model.col_ptr.(j) else 1)
        0 wcols
    in
    let per_lp = match wfac with Some f -> Basis.refactor_count f | None -> 0 in
    let t = Basis.create Basis.Lu ~m in
    let times =
      Array.init repeats (fun _ ->
          let t0 = Unix.gettimeofday () in
          Basis.refactorize t ~basis:wcols ~col;
          Unix.gettimeofday () -. t0)
    in
    Array.sort compare times;
    let median = times.(repeats / 2) in
    Report.row "%-34s %8.3fms median of %d  %d per cold root LP  m=%d nnz(B)=%d\n" name
      (median *. 1e3) repeats per_lp m nnz;
    record ~kernel:name ~size:(size_of std)
      ~wall_s:(Array.fold_left ( +. ) 0.0 times)
      [
        ("refactor_ms_median", flt (median *. 1e3));
        ("repeats", string_of_int repeats);
        ("refactors_per_root_lp", string_of_int per_lp);
        ("m", string_of_int m);
        ("nnz_b", string_of_int nnz);
      ]
  | _ -> Report.row "%-34s skipped: root LP not optimal\n" name

(* ---------------------------------------------------------------- *)
(* B&B kernel: nodes/sec with warm dual-simplex restarts              *)

let bb_kernel ~label ~node_limit ~time_limit (std : Model.std) =
  let name = Printf.sprintf "bb-%s-warm-dual-lu" label in
  let options = { Branch_bound.default_options with Branch_bound.node_limit; time_limit } in
  let t0 = Unix.gettimeofday () in
  let out = Branch_bound.solve ~options std in
  let dt = Unix.gettimeofday () -. t0 in
  let nodes_per_sec = float_of_int out.Branch_bound.nodes /. dt in
  Report.row
    "%-34s %8.3fs  %4d nodes (%d warm, %d dual)  %6.1f nodes/s  %6d pivots (%d dual)\n" name dt
    out.Branch_bound.nodes out.Branch_bound.warm_started_nodes
    out.Branch_bound.dual_restarted_nodes nodes_per_sec out.Branch_bound.lp_iterations
    out.Branch_bound.dual_pivots;
  record ~kernel:name ~size:(size_of std) ~wall_s:dt
    [
      ("nodes", string_of_int out.Branch_bound.nodes);
      ("warm_started_nodes", string_of_int out.Branch_bound.warm_started_nodes);
      ("dual_restarted_nodes", string_of_int out.Branch_bound.dual_restarted_nodes);
      ("dual_pivots", string_of_int out.Branch_bound.dual_pivots);
      ("bland_pivots", string_of_int out.Branch_bound.bland_pivots);
      ("nodes_per_sec", flt nodes_per_sec);
      ("lp_pivots", string_of_int out.Branch_bound.lp_iterations);
      ("pivots_per_sec", flt (float_of_int out.Branch_bound.lp_iterations /. dt));
      ("best_bound", flt out.Branch_bound.best_bound);
    ]

(* ---------------------------------------------------------------- *)
(* Tier-1 reactive restore: event -> healthy-replacement latency     *)

(* The two-tier claim in numbers: after one tier-2 round binds capacity,
   fail [events] reservation-owned servers one at a time and time the
   synchronous mark_down -> replacement repair.  Two latencies compete:
   the tier-1 reactive path (O(affected classes) against the incremental
   availability index) and the tier-2 baseline — a failure that waits for
   the next loop round pays the round's solve latency.  Visited-server / visited-class / allocation counters per event
   pin the O(n) -> O(classes) claim at every preset size. *)
let reactive_restore_kernel ~label ~events preset =
  let module Broker = Ras_broker.Broker in
  let module Region = Ras_topology.Region in
  let region = Scenarios.region_of preset in
  let broker = Broker.create region in
  let requests = Scenarios.requests_of preset region in
  let reservations =
    List.map Ras.Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02 ~first_id:8000
  in
  let mover = Ras.Online_mover.create broker in
  let reactive = Ras.Online_mover.reactive mover in
  Ras.Online_mover.set_reservations mover reservations;
  let solver =
    {
      Scenarios.simulation_solver with
      Ras.Async_solver.run_phase2 = false;
      phase1_time_limit_s = 120.0;
    }
  in
  let snap = Ras.Snapshot.take ~home_of:(Ras.Online_mover.home_of mover) broker reservations in
  let stats = Ras.Async_solver.solve ~params:solver snap in
  ignore (Ras.Online_mover.apply_plan mover stats.Ras.Async_solver.plan);
  (let p1 = stats.Ras.Async_solver.phase1 in
   Ras.Reactive.set_prices reactive ~row_names:p1.Ras.Phases.compiled.Ras_mip.Model.row_names
     ~duals:p1.Ras.Phases.lp_duals);
  let round_s = stats.Ras.Async_solver.duration_s in
  let n = Broker.num_servers broker in
  (* victims: healthy servers bound to guaranteed reservations, spread over
     the region *)
  let bound = ref [] in
  for id = n - 1 downto 0 do
    if Broker.healthy_at broker id then begin
      match Broker.current_owner broker id with
      | Broker.Reservation rid when rid < 8000 -> (
        match
          List.find_opt
            (fun r -> r.Ras.Reservation.id = rid && not (Ras.Reservation.is_buffer r))
            reservations
        with
        | Some res -> bound := (id, res) :: !bound
        | None -> ())
      | _ -> ()
    end
  done;
  let bound = Array.of_list !bound in
  let events = min events (Array.length bound) in
  let stride = if events = 0 then 1 else Array.length bound / events in
  let victims = List.init events (fun i -> bound.(i * stride)) in
  if events = 0 then
    Report.row "%-34s skipped: no bound servers after the setup round\n"
      (Printf.sprintf "reactive-restore-%s" label)
  else begin
    (* fail each victim; the mover repairs synchronously inside
       mark_down through the reactive index *)
    Ras.Reactive.reset_counters reactive;
    let done0 = Ras.Online_mover.replacements_done mover in
    let alloc0 = Gc.allocated_bytes () in
    let t1 = Unix.gettimeofday () in
    List.iter
      (fun (id, _) -> Broker.mark_down broker id Ras_failures.Unavail.Unplanned_sw)
      victims;
    let tier1_s = Unix.gettimeofday () -. t1 in
    let alloc = Gc.allocated_bytes () -. alloc0 in
    let c = Ras.Reactive.counters reactive in
    let restored = Ras.Online_mover.replacements_done mover - done0 in
    let fe = float_of_int events in
    let per_event = tier1_s /. fe in
    Report.row "%-34s %d events  %d restored  tier-1 %.6fs/event  round %.3fs (%.0fx)\n"
      (Printf.sprintf "reactive-restore-%s" label)
      events restored per_event round_s (round_s /. per_event);
    Report.row
      "%-34s visited/event: %.1f servers  %.1f classes  (%d servers, %d buckets)  %.0f B alloc/event\n"
      ""
      (float_of_int c.Ras.Reactive.visited_servers /. fe)
      (float_of_int c.Ras.Reactive.visited_classes /. fe)
      n
      (Ras.Reactive.num_buckets reactive)
      (alloc /. fe);
    record
      ~kernel:(Printf.sprintf "reactive-restore-%s" label)
      ~size:(Printf.sprintf "servers=%d buckets=%d" n (Ras.Reactive.num_buckets reactive))
      ~wall_s:tier1_s
      [
        ("events", string_of_int events);
        ("restored", string_of_int restored);
        ("per_event_s", flt per_event);
        ("baseline_round_s", flt round_s);
        ("round_speedup", flt (round_s /. per_event));
        ("visited_servers_per_event", flt (float_of_int c.Ras.Reactive.visited_servers /. fe));
        ("visited_classes_per_event", flt (float_of_int c.Ras.Reactive.visited_classes /. fe));
        ("alloc_bytes_per_event", flt (alloc /. fe));
      ]
  end

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks (build kernels)                         *)

let tests () =
  let std = lp_problem () in
  let snapshot = scenario_snapshot Scenarios.Small in
  let symmetry = Ras.Symmetry.build snapshot in
  let formulation = Ras.Formulation.build symmetry snapshot.Ras.Snapshot.reservations in
  [
    Test.make ~name:"simplex-lp-120var" (Staged.stage (fun () -> Ras_mip.Simplex.solve std));
    Test.make ~name:"symmetry-build" (Staged.stage (fun () -> Ras.Symmetry.build snapshot));
    Test.make ~name:"formulation-build"
      (Staged.stage (fun () ->
           Ras.Formulation.build symmetry snapshot.Ras.Snapshot.reservations));
    Test.make ~name:"model-compile"
      (Staged.stage (fun () -> Ras_mip.Model.compile formulation.Ras.Formulation.model));
    Test.make ~name:"phase1-heuristic-solve"
      (Staged.stage (fun () ->
           Ras.Phases.run ~mip_node_limit:0 snapshot snapshot.Ras.Snapshot.reservations));
  ]

let run_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) ()
  in
  let grouped = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        Report.row "%-40s %12.0f ns/run\n" name est;
        record ~kernel:name ~size:"micro" ~wall_s:(est *. 1e-9)
          [ ("ns_per_run", flt est) ]
      | Some _ | None -> Report.row "%-40s (no estimate)\n" name)
    results

(* ---------------------------------------------------------------- *)
(* Preset rows: one record per scenario size drives every kernel      *)
(* section below, so a new size inherits the same knob structure      *)
(* instead of a copy-pasted block per kernel.  A zero                 *)
(* repeats/limit/events skips that kernel for the row; [with_dense]   *)
(* gates the O(m^3) dense-inverse baselines, intractable at the       *)
(* region-scale row's model size.                                     *)

type preset_row = {
  label : string;
  preset : Scenarios.preset;
  lp_repeats : int;
  bb_node_limit : int;
  bb_time_limit : float;
  with_dense : bool;
  reactive_events : int;  (* tier-1 restore events; 0 skips the kernel *)
  lu_refactors : int;  (* timed root-basis refactorizations; 0 skips *)
}

(* evaluated at run time so the [Scenarios.quick] flag (set by the CLI) is
   already in effect *)
let preset_rows () =
  [
    {
      label = "small";
      preset = Scenarios.Small;
      lp_repeats = Scenarios.scaled 8;
      bb_node_limit = Scenarios.scaled 120;
      bb_time_limit = 60.0;
      with_dense = true;
      reactive_events = 0;
      lu_refactors = 0;
    };
    {
      label = "medium";
      preset = Scenarios.Medium;
      lp_repeats = 2;
      bb_node_limit = (if !Scenarios.quick then 24 else 60);
      bb_time_limit = 120.0;
      with_dense = true;
      reactive_events = (if !Scenarios.quick then 20 else 60);
      lu_refactors = (if !Scenarios.quick then 7 else 31);
    };
    (* the north-star row: the 10^6-server preset.  Symmetry aggregation
       keeps the compiled model within ~2x of medium, so every enabled
       kernel runs in the same regime — only the dense O(m^3) baselines
       are gated off. *)
    {
      label = "large";
      preset = Scenarios.Region_scale;
      lp_repeats = (if !Scenarios.quick then 1 else 2);
      bb_node_limit = (if !Scenarios.quick then 8 else 40);
      bb_time_limit = 120.0;
      with_dense = false;
      reactive_events = (if !Scenarios.quick then 10 else 25);
      lu_refactors = (if !Scenarios.quick then 7 else 31);
    };
  ]

let run () =
  json_entries := [];
  Report.heading "Solver kernel benchmarks"
    ~paper:"(methodology) wall-clock kernels behind Figs. 7/8/10/11 and Table 1"
    ~expect:"Devex fewer pivots than Dantzig; sparse kernels no slower than the dense oracle";
  Report.row "-- bechamel micro-benchmarks --\n";
  run_micro ();
  let rows = List.map (fun r -> (r, lazy (scenario_std r.preset))) (preset_rows ()) in
  Report.row "-- LP pricing (Table-1 scenario sizes) --\n";
  List.iter
    (fun (r, std) ->
      if r.lp_repeats > 0 then
        lp_kernel ~label:r.label ~repeats:r.lp_repeats ~with_dense:r.with_dense
          (Lazy.force std))
    rows;
  Report.row "-- LU refactorization (root basis) --\n";
  List.iter
    (fun (r, std) ->
      if r.lu_refactors > 0 then
        lu_refactor_kernel ~label:r.label ~repeats:r.lu_refactors (Lazy.force std))
    rows;
  Report.row "-- branch-and-bound --\n";
  List.iter
    (fun (r, std) ->
      if r.bb_node_limit > 0 then
        bb_kernel ~label:r.label ~node_limit:r.bb_node_limit ~time_limit:r.bb_time_limit
          (Lazy.force std))
    rows;
  Report.row "-- tier-1 reactive restore (event -> replacement) --\n";
  List.iter
    (fun (r, _) ->
      if r.reactive_events > 0 then
        reactive_restore_kernel ~label:r.label ~events:r.reactive_events r.preset)
    rows;
  write_json ()
