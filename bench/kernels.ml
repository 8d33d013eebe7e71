(* Solver kernel benchmarks.

   Three layers:
   - Bechamel micro-benchmarks of the build kernels behind the timing
     figures (7, 8, 10, 11): simplex LP solve, symmetry grouping,
     formulation build, model compile, and a full phase-1 solve.
   - Direct wall-clock benchmarks of the LP/MIP hot path on the Table-1
     scenario sizes: LP pivots/sec and FTRAN/BTRAN result density of the
     cold root LP, one LU refactorization of the root basis, the root LP
     of a post-failure round started cold and from the crash basis at the
     status quo, that round's model build (symmetry, formulation and
     compile, each timed alone) and merge + apply (the moves it makes and
     the targets it writes), LP rounding + repair of the root-LP optimum,
     branch-and-bound nodes/sec with warm dual-simplex restarts on the
     factorized basis, and the time per node of a round's phase-2 tree
     with the tree's fingerprint.  Each pair prints its speedup and
     agreement; nothing is asserted.
   - The tier-1 restore path and a demand change's window (snapshot +
     admission, and the column copy the next broker write pays) on the
     medium and 10^6-server presets.

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

(* Words allocated on both heaps.  The minor count comes from
   [Gc.minor_words]: OCaml 5.1's [Gc.counters] leaves out what the minor
   heap holds since its last collection.  Exact over a window that starts
   with a [Gc.minor ()]. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

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
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  Ras.Snapshot.take broker reservations

let scenario_formulation preset =
  let snapshot = scenario_snapshot preset in
  let symmetry = Ras.Symmetry.build snapshot in
  let formulation = Ras.Formulation.build symmetry in
  (formulation, Ras_mip.Model.compile formulation.Ras.Formulation.model)

let size_of (std : Model.std) = Printf.sprintf "nvars=%d nrows=%d" std.Model.nvars std.Model.nrows

(* ---------------------------------------------------------------- *)
(* LP kernel: pivots/sec of the cold root LP                         *)

let lp_kernel ~label ~repeats (std : Model.std) =
  let ws = Simplex.create_workspace () in
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  let status = ref "?" in
  let ks = ref { Simplex.avg_ftran_nnz = 0.0; avg_btran_nnz = 0.0 } in
  for _ = 1 to repeats do
    match Simplex.solve ~ws std with
    | Simplex.Optimal { iterations; kstats; _ } ->
      iters := !iters + iterations;
      ks := kstats;
      status := "optimal"
    | Simplex.Infeasible _ -> status := "infeasible"
    | Simplex.Unbounded -> status := "unbounded"
    | Simplex.Iteration_limit _ -> status := "iteration-limit"
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let iters = !iters and ks = !ks in
  let name = Printf.sprintf "lp-%s-devex-pricing" label in
  let rate = float_of_int iters /. dt in
  Report.row
    "%-34s %8.3fs  %6d pivots  %9.0f pivots/s  %6.1f LP/s  ftran %.1f / btran %.1f nnz  [%s]\n"
    name dt iters rate
    (float_of_int repeats /. dt)
    ks.Simplex.avg_ftran_nnz ks.Simplex.avg_btran_nnz !status;
  record ~kernel:name ~size:(size_of std) ~wall_s:dt
    [
      ("pivots", string_of_int iters);
      ("pivots_per_sec", flt rate);
      ("lps_per_sec", flt (float_of_int repeats /. dt));
      ("avg_ftran_nnz", flt ks.Simplex.avg_ftran_nnz);
      ("avg_btran_nnz", flt ks.Simplex.avg_btran_nnz);
    ]

(* ---------------------------------------------------------------- *)
(* LU refactorization: singletons, then Markowitz, of the root basis *)

(* Cost of one [Basis.refactorize] of the lp row's optimal root basis
   (quartiles of [repeats]), next to how often a cold root LP pays it, so
   the refactorization share of the LP is readable from the JSON. *)
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
    let t = Basis.create ~m in
    let times =
      Array.init repeats (fun _ ->
          let t0 = Unix.gettimeofday () in
          Basis.refactorize t ~basis:wcols ~col;
          Unix.gettimeofday () -. t0)
    in
    Array.sort compare times;
    let q k = times.(k * (repeats - 1) / 4) in
    Report.row "%-34s %8.3fms median (q1 %.3f, q3 %.3f) of %d  %d per cold root LP  m=%d nnz(B)=%d\n"
      name (q 2 *. 1e3) (q 1 *. 1e3) (q 3 *. 1e3) repeats per_lp m nnz;
    record ~kernel:name ~size:(size_of std)
      ~wall_s:(Array.fold_left ( +. ) 0.0 times)
      [
        ("refactor_ms_median", flt (q 2 *. 1e3));
        ("refactor_ms_q1", flt (q 1 *. 1e3));
        ("refactor_ms_q3", flt (q 3 *. 1e3));
        ("repeats", string_of_int repeats);
        ("refactors_per_root_lp", string_of_int per_lp);
        ("m", string_of_int m);
        ("nnz_b", string_of_int nnz);
      ]
  | _ -> Report.row "%-34s skipped: root LP not optimal\n" name

(* ---------------------------------------------------------------- *)
(* Root LP: cold start vs the crash basis at the status quo          *)

(* A continuous-loop round after failures: a bring-up round through
   [System], up to 200 random hardware failures (one per 40 servers at
   most), then the solve [System] makes next, not yet applied.  Returns
   the system and that round's solve.  By default the rounds are
   heuristic-only ([Scenarios.simulation_solver]) on the scenario's
   requests; [solver] and [rack_limits] (rack goals on every request of at
   least 5 RRU, see [Scenarios.with_rack_limits]) make them the tree
   searches a round with phase 2 runs. *)
let post_failure_round ?(solver = Scenarios.simulation_solver) ?(rack_limits = false) preset =
  let module Broker = Ras_broker.Broker in
  let region = Scenarios.region_of preset in
  let broker = Broker.create region in
  let config = { Ras.System.default_config with Ras.System.solver; job_fill_fraction = 0.0 } in
  let sys = Ras.System.create ~config broker in
  let requests = Scenarios.requests_of preset region in
  List.iter (Ras.System.add_request sys)
    (if rack_limits then Scenarios.with_rack_limits requests else requests);
  ignore (Ras.System.solve_now sys);
  let n = Broker.num_servers broker in
  let rng = Ras_stats.Rng.create 24 in
  for _ = 1 to min 200 (n / 40) do
    Broker.mark_down broker (Ras_stats.Rng.int rng n) Ras_failures.Unavail.Unplanned_hw
  done;
  (sys, Ras.Async_solver.solve ~params:solver (Ras.System.snapshot sys))

(* The phase-1 model of [post_failure_round]: its formulation and compiled
   model. *)
let post_failure_phase1 (_, stats) =
  let p1 = stats.Ras.Async_solver.phase1 in
  (p1.Ras.Phases.formulation, p1.Ras.Phases.compiled)

(* The root LP [Phases] solves every round, cold from the all-slack basis
   and from [Simplex.crash] at the status quo (crash time included):
   pivots of each, quartiles of the wall time over [repeats], how many
   refactorizations and how dense an FTRAN and a BTRAN result are on
   average in one solve, and the objectives' relative difference
   (alternative optima may differ in x, not in obj). *)
let root_lp_kernel ~label ~repeats ((f : Ras.Formulation.t), (std : Model.std)) =
  let name = Printf.sprintf "root-lp-%s" label in
  let x0 = Ras.Formulation.status_quo f in
  let timed solve =
    let times = Array.make repeats 0.0 and out = ref Simplex.Unbounded in
    for r = 0 to repeats - 1 do
      let t0 = Unix.gettimeofday () in
      out := solve ();
      times.(r) <- Unix.gettimeofday () -. t0
    done;
    Array.sort compare times;
    ((fun k -> times.(k * (repeats - 1) / 4)), !out)
  in
  let cold_q, cold = timed (fun () -> Simplex.solve std) in
  let crash_q, crash = timed (fun () -> Simplex.solve ~basis:(Simplex.crash std x0) std) in
  match (cold, crash) with
  | Simplex.Optimal c, Simplex.Optimal w ->
    let rel = Float.abs (c.obj -. w.obj) /. Float.max 1.0 (Float.abs c.obj) in
    let refactors (b : Simplex.warm_basis) =
      match b.Simplex.wfac with Some f -> Ras_mip.Basis.refactor_count f | None -> 0
    in
    Report.row
      "%-34s cold %5d pivots %7.3fs (q1 %.3f, q3 %.3f)  crash %5d pivots %7.3fs (q1 %.3f, q3 \
       %.3f) of %d  (%.2fx time)  obj rel diff %.1e\n"
      name c.iterations (cold_q 2) (cold_q 1) (cold_q 3) w.iterations (crash_q 2) (crash_q 1)
      (crash_q 3) repeats
      (cold_q 2 /. crash_q 2)
      rel;
    Report.row
      "%-34s per solve: cold %d refactorizations, ftran %.1f / btran %.1f nnz; crash %d, \
       ftran %.1f / btran %.1f nnz\n"
      "" (refactors c.basis) c.kstats.Simplex.avg_ftran_nnz c.kstats.Simplex.avg_btran_nnz
      (refactors w.basis) w.kstats.Simplex.avg_ftran_nnz w.kstats.Simplex.avg_btran_nnz;
    record ~kernel:name ~size:(size_of std) ~wall_s:(crash_q 2)
      [
        ("cold_pivots", string_of_int c.iterations);
        ("crash_pivots", string_of_int w.iterations);
        ("cold_s_median", flt (cold_q 2));
        ("cold_s_q1", flt (cold_q 1));
        ("cold_s_q3", flt (cold_q 3));
        ("crash_s_median", flt (crash_q 2));
        ("crash_s_q1", flt (crash_q 1));
        ("crash_s_q3", flt (crash_q 3));
        ("repeats", string_of_int repeats);
        ("cold_refactors", string_of_int (refactors c.basis));
        ("crash_refactors", string_of_int (refactors w.basis));
        ("crash_avg_ftran_nnz", flt w.kstats.Simplex.avg_ftran_nnz);
        ("crash_avg_btran_nnz", flt w.kstats.Simplex.avg_btran_nnz);
        ("obj_rel_diff", flt rel);
      ]
  | _ -> Report.row "%-34s skipped: root LP not optimal\n" name

(* A compiled model's rows by kind, read off the names [Formulation.build]
   gives them: class supply (expression 5), capacity, MSB and rack spread
   (2, 3), the buffer's per-MSB rows (4, 6), storage quorum, datacenter
   affinity (7), and stability (1), which has no rows since it became a
   bound split. *)
let row_kinds =
  [
    ("supply", [ "supply_" ]);
    ("capacity", [ "capacity_" ]);
    ("spread", [ "over_"; "overk_" ]);
    ("buffer", [ "zbuf_" ]);
    ("quorum", [ "quorum_" ]);
    ("affinity", [ "affge_"; "affle_" ]);
    ("stability", [ "move_" ]);
  ]

let rows_by_kind (std : Model.std) =
  let has_prefix name pre = String.starts_with ~prefix:pre name in
  List.map
    (fun (kind, prefixes) ->
      ( kind,
        Array.fold_left
          (fun n name -> if List.exists (has_prefix name) prefixes then n + 1 else n)
          0 std.Model.row_names ))
    row_kinds

(* The three layers that turn [post_failure_round]'s snapshot into its
   phase-1 model, each timed alone over [repeats]: [Symmetry.build],
   [Formulation.build] on those classes and [Model.compile] on that model,
   as [Phases.run] calls them.  Prints each layer's median and quartiles,
   the classes, covered servers and the compiled size, and its rows by
   kind. *)
let model_build_kernel ~label ~repeats (sys, _) =
  let name = Printf.sprintf "model-build-%s" label in
  let snapshot = Ras.System.snapshot sys in
  let params = Scenarios.simulation_solver.Ras.Phases.formulation in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sym_s = Array.make repeats 0.0 and form_s = Array.make repeats 0.0 in
  let compile_s = Array.make repeats 0.0 and last = ref None in
  for r = 0 to repeats - 1 do
    (* a repeat starts on a collected heap, so no layer pays for the
       previous repeat's garbage *)
    Gc.full_major ();
    let sym, ts = timed (fun () -> Ras.Symmetry.build snapshot) in
    let f, tf = timed (fun () -> Ras.Formulation.build ~params sym) in
    let std, tc = timed (fun () -> Model.compile f.Ras.Formulation.model) in
    sym_s.(r) <- ts;
    form_s.(r) <- tf;
    compile_s.(r) <- tc;
    last := Some (sym, std)
  done;
  match !last with
  | None -> ()
  | Some (sym, std) ->
    let q times =
      let sorted = Array.copy times in
      Array.sort compare sorted;
      fun k -> sorted.(k * (repeats - 1) / 4) *. 1e3
    in
    let sq = q sym_s and fq = q form_s and cq = q compile_s in
    let covered =
      Array.fold_left (fun acc c -> acc + Ras.Symmetry.size c) 0 sym.Ras.Symmetry.classes
    in
    let nnz = std.Model.col_ptr.(std.Model.nvars) in
    Report.row
      "%-34s symmetry %6.2fms (q1 %.2f, q3 %.2f)  formulation %6.2fms (q1 %.2f, q3 %.2f)  compile \
       %6.2fms (q1 %.2f, q3 %.2f) of %d\n"
      name (sq 2) (sq 1) (sq 3) (fq 2) (fq 1) (fq 3) (cq 2) (cq 1) (cq 3) repeats;
    Report.row "%-34s %d classes over %d servers  nvars=%d nrows=%d nnz=%d\n" ""
      (Ras.Symmetry.num_classes sym) covered std.Model.nvars std.Model.nrows nnz;
    let kinds = rows_by_kind std in
    Report.row "%-34s rows: %s\n" ""
      (String.concat ", " (List.map (fun (kind, n) -> Printf.sprintf "%s %d" kind n) kinds));
    record ~kernel:name ~size:(size_of std)
      ~wall_s:((sq 2 +. fq 2 +. cq 2) *. 1e-3)
      ([
         ("symmetry_ms_median", flt (sq 2));
         ("symmetry_ms_q1", flt (sq 1));
         ("symmetry_ms_q3", flt (sq 3));
         ("formulation_ms_median", flt (fq 2));
         ("formulation_ms_q1", flt (fq 1));
         ("formulation_ms_q3", flt (fq 3));
         ("compile_ms_median", flt (cq 2));
         ("compile_ms_q1", flt (cq 1));
         ("compile_ms_q3", flt (cq 3));
         ("repeats", string_of_int repeats);
         ("classes", string_of_int (Ras.Symmetry.num_classes sym));
         ("covered_servers", string_of_int covered);
         ("nnz", string_of_int nnz);
       ]
      @ List.map (fun (kind, n) -> ("rows_" ^ kind, string_of_int n)) kinds)

(* ---------------------------------------------------------------- *)
(* Primal heuristic: LP rounding, capacity repair, local searches     *)

(* [Formulation.repair (round_lp x)] on the phase-1 root-LP optimum [x]
   (median of [repeats]): the incumbent branch-and-bound starts from, and
   on a time-limited round often the round's answer. *)
let heuristic_kernel ~label ~repeats ((f : Ras.Formulation.t), std) =
  let name = Printf.sprintf "heuristic-%s" label in
  match Simplex.solve std with
  | Simplex.Optimal { x; _ } ->
    let times =
      Array.init repeats (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (Ras.Formulation.repair f (Ras.Formulation.round_lp f x));
          Unix.gettimeofday () -. t0)
    in
    Array.sort compare times;
    let median = times.(repeats / 2) in
    let pairs = Ras.Formulation.num_assignment_vars f in
    Report.row "%-34s %8.3fms median of %d  pairs=%d\n" name (median *. 1e3) repeats pairs;
    record ~kernel:name ~size:(size_of std) ~wall_s:median
      [ ("pairs", string_of_int pairs); ("repeats", string_of_int repeats) ]
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

(* A round's phase-2 tree: [post_failure_round] with the loop's own solve
   limits ([Phases.default_params]) and rack goals, so the round runs
   phase 2; its rack-level model is searched again from [Phases.search]'s
   options, [repeats] times, each after a full major collection.  Prints
   the quartiles of the time per node and the tree's fingerprint: nodes,
   LP and dual pivots, incumbent, best bound and a digest of the
   solution's bits, which a change that claims the same answers must
   leave as it was. *)
let bb_phase2_kernel ~label ~repeats preset =
  let name = Printf.sprintf "bb-phase2-%s" label in
  let params = Ras.Phases.default_params in
  let _, stats = post_failure_round ~solver:params ~rack_limits:true preset in
  match stats.Ras.Async_solver.phase2 with
  | None -> Report.row "%-34s skipped: the round ran no phase 2\n" name
  | Some p2 ->
    let std = p2.Ras.Phases.compiled in
    let _, options = Ras.Phases.search ~params ~rack_level:true p2.Ras.Phases.formulation std in
    let last = ref None in
    let per_node =
      Array.init repeats (fun _ ->
          Gc.full_major ();
          let t0 = Unix.gettimeofday () in
          let out = Branch_bound.solve ~options std in
          let dt = Unix.gettimeofday () -. t0 in
          last := Some out;
          dt *. 1e6 /. float_of_int (max 1 out.Branch_bound.nodes))
    in
    Array.sort compare per_node;
    let q k = per_node.(k * (repeats - 1) / 4) in
    let out = Option.get !last in
    let digest =
      match out.Branch_bound.solution with
      | None -> "none"
      | Some x ->
        let b = Buffer.create (8 * Array.length x) in
        Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) x;
        Digest.to_hex (Digest.string (Buffer.contents b))
    in
    Report.row "%-34s %8.2fus/node median (q1 %.2f, q3 %.2f) of %d  %s\n" name (q 2) (q 1) (q 3)
      repeats (size_of std);
    Report.row "%-34s %d nodes  %d pivots (%d dual)  incumbent %.17g  bound %.17g  solution %s\n" ""
      out.Branch_bound.nodes out.Branch_bound.lp_iterations out.Branch_bound.dual_pivots
      out.Branch_bound.objective out.Branch_bound.best_bound digest;
    record ~kernel:name ~size:(size_of std)
      ~wall_s:(q 2 *. 1e-6 *. float_of_int out.Branch_bound.nodes)
      [
        ("us_per_node_median", flt (q 2));
        ("us_per_node_q1", flt (q 1));
        ("us_per_node_q3", flt (q 3));
        ("repeats", string_of_int repeats);
        ("nodes", string_of_int out.Branch_bound.nodes);
        ("lp_pivots", string_of_int out.Branch_bound.lp_iterations);
        ("dual_pivots", string_of_int out.Branch_bound.dual_pivots);
        ("incumbent", Printf.sprintf "%.17g" out.Branch_bound.objective);
        ("best_bound", Printf.sprintf "%.17g" out.Branch_bound.best_bound);
        ("solution_digest", Printf.sprintf "%S" digest);
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
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  let mover = Ras.Online_mover.create broker in
  let reactive = Ras.Online_mover.reactive mover in
  Ras.Online_mover.set_reservations mover reservations;
  let solver =
    { Scenarios.simulation_solver with Ras.Async_solver.phase1_time_limit_s = 120.0 }
  in
  let snap = Ras.Snapshot.take broker reservations in
  let stats = Ras.Async_solver.solve ~params:solver snap in
  ignore (Ras.Online_mover.apply_plan mover stats.Ras.Async_solver.plan);
  (let p1 = stats.Ras.Async_solver.phase1 in
   Ras.Reactive.set_prices reactive
     ~supply_rows:p1.Ras.Phases.formulation.Ras.Formulation.supply_rows
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
(* Demand change: snapshot + admission, and the copy-on-write cost    *)

(* The timed window of a demand change, [System.snapshot] then
   [Portal.modify], on a broker nothing writes between changes; then the
   one column copy the first write after a snapshot pays, against the
   same write with no snapshot pending.  Words are minor + major words
   allocated per change. *)
let snapshot_kernel ~label ~changes preset =
  let module Broker = Ras_broker.Broker in
  let module Portal = Ras.Portal in
  let region = Scenarios.region_of preset in
  let broker = Broker.create region in
  let sys = Ras.System.create broker in
  let portal = Portal.create () in
  List.iter
    (fun req ->
      if Portal.submit portal (Ras.System.snapshot sys) req = Portal.Accepted then
        Ras.System.add_request sys req)
    (Scenarios.requests_of preset region);
  let accepted = Array.of_list (Portal.requests portal) in
  Gc.minor ();
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to changes do
    let snap = Ras.System.snapshot sys in
    ignore (Portal.modify portal snap accepted.(i mod Array.length accepted))
  done;
  let change_s = (Unix.gettimeofday () -. t0) /. float_of_int changes in
  let change_words = (allocated_words () -. w0) /. float_of_int changes in
  (* toggle one server's in-use flag: an effective write that touches no
     index beyond the change feed *)
  let toggle () = Broker.set_in_use broker 0 (not (Broker.in_use_at broker 0)) in
  let time_write ~after_snapshot =
    (* untimed: pays the copy the last snapshot above left pending *)
    toggle ();
    let total = ref 0.0 in
    for _ = 1 to changes do
      if after_snapshot then ignore (Ras.System.snapshot sys);
      let t = Unix.gettimeofday () in
      toggle ();
      total := !total +. (Unix.gettimeofday () -. t)
    done;
    !total /. float_of_int changes
  in
  let plain_s = time_write ~after_snapshot:false in
  let copy_s = time_write ~after_snapshot:true in
  let n = Broker.num_servers broker in
  let name = Printf.sprintf "snapshot-%s" label in
  Report.row "%-34s %d changes  snapshot+modify %.6fs/change  %.0f words/change\n" name
    changes change_s change_words;
  Report.row "%-34s first write after a snapshot %.6fs (column copy)  plain write %.6fs\n" ""
    copy_s plain_s;
  record ~kernel:name
    ~size:(Printf.sprintf "servers=%d requests=%d" n (Array.length accepted))
    ~wall_s:(change_s *. float_of_int changes)
    [
      ("changes", string_of_int changes);
      ("change_s", flt change_s);
      ("words_per_change", flt change_words);
      ("first_write_after_snapshot_s", flt copy_s);
      ("plain_write_s", flt plain_s);
    ]

(* ---------------------------------------------------------------- *)
(* Merge + apply: a round's solver output carried out as moves       *)

(* A copy of the broker's owner, target, in-use and availability columns
   (an unavailable server is marked down unplanned, a planned one under
   maintenance), with no subscriber. *)
let clone_broker broker =
  let module Broker = Ras_broker.Broker in
  let copy = Broker.create (Broker.region broker) in
  for id = 0 to Broker.num_servers broker - 1 do
    Broker.move copy id (Broker.current_owner broker id);
    Broker.set_target copy id (Broker.owner_of_code (Broker.target_code broker id));
    if Broker.in_use_at broker id then Broker.set_in_use copy id true;
    if not (Broker.available_at broker id) then
      Broker.mark_down copy id Ras_failures.Unavail.Unplanned_hw
    else if not (Broker.healthy_at broker id) then
      Broker.mark_down copy id Ras_failures.Unavail.Planned_maintenance
  done;
  copy

(* What a round does between the phases' solutions and the price push:
   the moves of each phase ([Concretize.moves_of]), phase 2's merge, and
   [Online_mover.apply_plan], on [post_failure_round]'s state.  Each of
   [repeats] applies to a fresh copy of the broker (copy and mover set-up
   untimed); quartiles of the wall time, and the round's moves and target
   writes. *)
let merge_apply_kernel ~label ~repeats (sys, (stats : Ras.Async_solver.stats)) =
  let module Broker = Ras_broker.Broker in
  let module Concretize = Ras.Concretize in
  let name = Printf.sprintf "merge-apply-%s" label in
  let broker = Ras.System.broker sys in
  let decoded (p : Ras.Phases.result) =
    (p.Ras.Phases.formulation, Ras.Formulation.decode p.Ras.Phases.formulation p.Ras.Phases.solution)
  in
  let f1, a1 = decoded stats.Ras.Async_solver.phase1 in
  let phase2 = Option.map decoded stats.Ras.Async_solver.phase2 in
  let snapshot = f1.Ras.Formulation.symmetry.Ras.Symmetry.snapshot in
  let merge () =
    let moves1 = Concretize.moves_of f1 a1 in
    let moves =
      match phase2 with
      | Some (f2, a2) -> Concretize.merge snapshot ~phase1:moves1 ~phase2:(Concretize.moves_of f2 a2)
      | None -> moves1
    in
    Concretize.of_moves ~covers:(Ras.Snapshot.covers snapshot) moves
  in
  let last = ref None in
  let times =
    Array.init repeats (fun _ ->
        let copy = clone_broker broker in
        let mover = Ras.Online_mover.create copy in
        Ras.Online_mover.set_reservations mover (Ras.System.reservations sys);
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let plan = merge () in
        let apply = Ras.Online_mover.apply_plan mover plan in
        let dt = Unix.gettimeofday () -. t0 in
        last := Some (plan, apply);
        dt)
  in
  Array.sort compare times;
  let q k = times.(k * (repeats - 1) / 4) in
  match !last with
  | None -> ()
  | Some (plan, apply) ->
    let moves = List.length plan.Concretize.moves in
    let writes = apply.Ras.Online_mover.target_writes in
    Report.row "%-34s %8.3fms median (q1 %.3f, q3 %.3f) of %d  %d moves  %d target writes  %d servers%s\n"
      name (q 2 *. 1e3) (q 1 *. 1e3) (q 3 *. 1e3) repeats moves writes (Broker.num_servers broker)
      (if phase2 = None then "" else "  (phase 2 merged)");
    record ~kernel:name
      ~size:(Printf.sprintf "servers=%d" (Broker.num_servers broker))
      ~wall_s:(Array.fold_left ( +. ) 0.0 times)
      [
        ("merge_apply_ms_median", flt (q 2 *. 1e3));
        ("merge_apply_ms_q1", flt (q 1 *. 1e3));
        ("merge_apply_ms_q3", flt (q 3 *. 1e3));
        ("repeats", string_of_int repeats);
        ("moves", string_of_int moves);
        ("target_writes", string_of_int writes);
        ("phase2", string_of_bool (phase2 <> None));
      ]

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks (build kernels)                         *)

let tests () =
  let std = lp_problem () in
  let snapshot = scenario_snapshot Scenarios.Small in
  let symmetry = Ras.Symmetry.build snapshot in
  let formulation = Ras.Formulation.build symmetry in
  [
    Test.make ~name:"simplex-lp-120var" (Staged.stage (fun () -> Ras_mip.Simplex.solve std));
    Test.make ~name:"symmetry-build" (Staged.stage (fun () -> Ras.Symmetry.build snapshot));
    Test.make ~name:"formulation-build"
      (Staged.stage (fun () ->
           Ras.Formulation.build symmetry));
    Test.make ~name:"model-compile"
      (Staged.stage (fun () -> Ras_mip.Model.compile formulation.Ras.Formulation.model));
    Test.make ~name:"phase1-heuristic-solve"
      (Staged.stage (fun () ->
           Ras.Phases.run
             ~params:{ Ras.Phases.default_params with node_limit = 0 }
             snapshot));
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
(* repeats/limit/events skips that kernel for the row.               *)

type preset_row = {
  label : string;
  preset : Scenarios.preset;
  lp_repeats : int;
  bb_node_limit : int;
  bb_time_limit : float;
  bb_phase2_repeats : int;  (* timed searches of a round's phase-2 tree; 0 skips *)
  reactive_events : int;  (* tier-1 restore events; 0 skips the kernel *)
  lu_refactors : int;  (* timed root-basis refactorizations; 0 skips *)
  heuristic_repeats : int;  (* timed round_lp + repair calls; 0 skips *)
  root_lp_repeats : int;  (* timed cold and crash root LPs after failures; 0 skips *)
  merge_repeats : int;  (* timed merge + apply of the post-failure round; 0 skips *)
  model_build_repeats : int;  (* timed symmetry + formulation + compile of that round; 0 skips *)
  snapshot_changes : int;  (* timed snapshot + admission changes; 0 skips *)
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
      bb_phase2_repeats = 0;
      reactive_events = 0;
      lu_refactors = 0;
      heuristic_repeats = 0;
      root_lp_repeats = 0;
      merge_repeats = 0;
      model_build_repeats = 0;
      snapshot_changes = 0;
    };
    {
      label = "medium";
      preset = Scenarios.Medium;
      lp_repeats = 2;
      bb_node_limit = (if !Scenarios.quick then 24 else 60);
      bb_time_limit = 120.0;
      bb_phase2_repeats = (if !Scenarios.quick then 11 else 31);
      reactive_events = (if !Scenarios.quick then 20 else 60);
      lu_refactors = 31;
      heuristic_repeats = (if !Scenarios.quick then 5 else 15);
      root_lp_repeats = (if !Scenarios.quick then 7 else 15);
      merge_repeats = (if !Scenarios.quick then 7 else 15);
      model_build_repeats = (if !Scenarios.quick then 7 else 15);
      snapshot_changes = (if !Scenarios.quick then 200 else 1000);
    };
    (* the north-star row: the 10^6-server preset.  Symmetry aggregation
       keeps the compiled model within ~2x of medium, so every enabled
       kernel runs in the same regime. *)
    {
      label = "large";
      preset = Scenarios.Region_scale;
      lp_repeats = (if !Scenarios.quick then 1 else 2);
      bb_node_limit = (if !Scenarios.quick then 8 else 40);
      bb_time_limit = 120.0;
      (* phase 2 does not run at this scale (its candidates' pools pass
         the variable cap) *)
      bb_phase2_repeats = 0;
      reactive_events = (if !Scenarios.quick then 10 else 25);
      lu_refactors = 31;
      heuristic_repeats = (if !Scenarios.quick then 3 else 7);
      root_lp_repeats = (if !Scenarios.quick then 3 else 7);
      merge_repeats = (if !Scenarios.quick then 3 else 7);
      model_build_repeats = (if !Scenarios.quick then 7 else 9);
      snapshot_changes = (if !Scenarios.quick then 50 else 200);
    };
  ]

let run () =
  json_entries := [];
  Report.heading "Solver kernel benchmarks"
    ~paper:"(methodology) wall-clock kernels behind Figs. 7/8/10/11 and Table 1"
    ~expect:"hypersparse LP kernels: FTRAN/BTRAN results far below the row count";
  Report.row "-- bechamel micro-benchmarks --\n";
  run_micro ();
  let rows = List.map (fun r -> (r, lazy (scenario_formulation r.preset))) (preset_rows ()) in
  let std row = snd (Lazy.force row) in
  Report.row "-- LP root solve (Table-1 scenario sizes) --\n";
  List.iter
    (fun (r, row) -> if r.lp_repeats > 0 then lp_kernel ~label:r.label ~repeats:r.lp_repeats (std row))
    rows;
  Report.row "-- LU refactorization (root basis) --\n";
  List.iter
    (fun (r, row) ->
      if r.lu_refactors > 0 then
        lu_refactor_kernel ~label:r.label ~repeats:r.lu_refactors (std row))
    rows;
  Report.row "-- primal heuristic (round_lp + repair on the root-LP optimum) --\n";
  List.iter
    (fun (r, row) ->
      if r.heuristic_repeats > 0 then
        heuristic_kernel ~label:r.label ~repeats:r.heuristic_repeats (Lazy.force row))
    rows;
  Report.row
    "-- a round after failures: model build, root LP (cold vs crash at the status quo), merge + \
     apply --\n";
  List.iter
    (fun (r, _) ->
      if r.root_lp_repeats > 0 || r.merge_repeats > 0 || r.model_build_repeats > 0 then begin
        let round = post_failure_round r.preset in
        if r.model_build_repeats > 0 then
          model_build_kernel ~label:r.label ~repeats:r.model_build_repeats round;
        if r.root_lp_repeats > 0 then
          root_lp_kernel ~label:r.label ~repeats:r.root_lp_repeats (post_failure_phase1 round);
        if r.merge_repeats > 0 then merge_apply_kernel ~label:r.label ~repeats:r.merge_repeats round
      end)
    rows;
  Report.row "-- branch-and-bound --\n";
  List.iter
    (fun (r, row) ->
      if r.bb_node_limit > 0 then
        bb_kernel ~label:r.label ~node_limit:r.bb_node_limit ~time_limit:r.bb_time_limit
          (std row))
    rows;
  List.iter
    (fun (r, _) ->
      if r.bb_phase2_repeats > 0 then
        bb_phase2_kernel ~label:r.label ~repeats:r.bb_phase2_repeats r.preset)
    rows;
  Report.row "-- tier-1 reactive restore (event -> replacement) --\n";
  List.iter
    (fun (r, _) ->
      if r.reactive_events > 0 then
        reactive_restore_kernel ~label:r.label ~events:r.reactive_events r.preset)
    rows;
  Report.row "-- demand change (snapshot + admission, copy-on-write) --\n";
  List.iter
    (fun (r, _) ->
      if r.snapshot_changes > 0 then
        snapshot_kernel ~label:r.label ~changes:r.snapshot_changes r.preset)
    rows;
  write_json ()
