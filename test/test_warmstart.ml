(* Warm-start equivalence and determinism.

   The warm-start machinery (Simplex.solve ~basis, Branch_bound warm nodes,
   candidate-list pricing) is a pure performance change: on any input it must
   return the same status and the same objective (within the 1e-6 absolute
   gap) as [Oracles.mip_reference], a depth-first branch-and-bound whose
   every node LP is a cold tableau solve sharing no code with Simplex, and
   repeated runs must be bit-identical.  These tests pin that contract on a corpus of
   small random MIPs plus direct simplex restart checks. *)

module Model = Ras_mip.Model
module Lin_expr = Ras_mip.Lin_expr
module Simplex = Ras_mip.Simplex
module Branch_bound = Ras_mip.Branch_bound

(* ---------- random MIP corpus ---------- *)

(* Slightly larger than the brute-force cross-check cases in Test_mip so
   branch-and-bound actually opens several nodes and exercises the basis
   hand-off; integer coefficients keep objectives exactly representable. *)
let random_mip rng =
  let module R = Ras_stats.Rng in
  let n = 3 + R.int rng 5 in
  let m_rows = 2 + R.int rng 4 in
  let model = Model.create () in
  let vars =
    Array.init n (fun _ ->
        let kind = if R.int rng 4 = 0 then Model.Continuous else Model.Integer in
        Model.add_var ~kind ~ub:(float_of_int (1 + R.int rng 5)) model)
  in
  let coef () = float_of_int (R.int rng 13 - 6) in
  for _ = 1 to m_rows do
    let e = Lin_expr.of_terms (List.init n (fun i -> (coef (), vars.(i)))) in
    let sense =
      match R.int rng 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq
    in
    ignore (Model.add_constraint model e sense (float_of_int (R.int rng 21 - 6)))
  done;
  Model.set_objective model
    (Lin_expr.of_terms (List.init n (fun i -> (coef (), vars.(i)))));
  Model.compile model

(* ---------- equivalence: warm-started B&B = cold-started B&B ---------- *)

let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm-started B&B matches cold start" ~count:300
    QCheck.int (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let std = random_mip rng in
      let warm = Branch_bound.solve std in
      (* branch-and-bound's fixed absolute optimality gap *)
      let tol = 1e-6 in
      match (Oracles.mip_reference std, warm.Branch_bound.status) with
      | Oracles.Mip_optimal cold, Branch_bound.Optimal ->
        Float.abs (cold -. warm.Branch_bound.objective) <= tol
      | Oracles.Mip_infeasible, Branch_bound.Infeasible -> true
      | _ -> false)

(* ---------- determinism: repeated warm runs are bit-identical ---------- *)

let fingerprint (out : Branch_bound.outcome) =
  ( out.Branch_bound.status,
    Int64.bits_of_float out.Branch_bound.objective,
    Int64.bits_of_float out.Branch_bound.best_bound,
    out.Branch_bound.nodes,
    out.Branch_bound.lp_iterations,
    out.Branch_bound.warm_started_nodes,
    Option.map (Array.map Int64.bits_of_float) out.Branch_bound.solution )

let prop_warm_deterministic =
  QCheck.Test.make ~name:"warm-started B&B is deterministic" ~count:150
    QCheck.int (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let std = random_mip rng in
      let a = Branch_bound.solve std in
      let b = Branch_bound.solve std in
      fingerprint a = fingerprint b)

(* ---------- direct simplex restart checks ---------- *)

(* A feasible LP with enough structure that phase 1 does real work. *)
let restart_lp () =
  let m = Model.create () in
  let n_src = 6 and n_dst = 5 in
  let vars =
    Array.init n_src (fun _ -> Array.init n_dst (fun _ -> Model.add_var ~ub:30.0 m))
  in
  for i = 0 to n_src - 1 do
    let e = Lin_expr.of_terms (List.init n_dst (fun j -> (1.0, vars.(i).(j)))) in
    ignore (Model.add_constraint m e Model.Le 25.0)
  done;
  for j = 0 to n_dst - 1 do
    let e = Lin_expr.of_terms (List.init n_src (fun i -> (1.0, vars.(i).(j)))) in
    ignore (Model.add_constraint m e Model.Ge 12.0)
  done;
  Model.set_objective m
    (Lin_expr.of_terms
       (List.concat
          (List.init n_src (fun i ->
               List.init n_dst (fun j ->
                   (float_of_int (((i * 5) + (j * 7)) mod 9), vars.(i).(j)))))));
  Model.compile m

type lp_opt = { obj : float; iterations : int; basis : Simplex.warm_basis }

let solve_exn ?basis ?lb ?ub std =
  match Simplex.solve ?basis ?lb ?ub std with
  | Simplex.Optimal { obj; iterations; basis; _ } -> { obj; iterations; basis }
  | Simplex.Infeasible _ -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Simplex.Iteration_limit _ -> Alcotest.fail "unexpected iteration limit"

let test_restart_same_bounds () =
  let std = restart_lp () in
  let first = solve_exn std in
  Alcotest.(check bool) "cold solve does work" true (first.iterations > 1);
  (* restarting from the optimal basis with unchanged bounds must confirm
     optimality in the single dry pricing pass (the iteration counter counts
     loop passes, so zero pivots reports as 1) *)
  let again = solve_exn ~basis:first.basis std in
  Alcotest.(check int) "no pivots on restart" 1 again.iterations;
  Alcotest.(check (float 1e-9)) "same objective" first.obj again.obj

let test_restart_tightened_bound () =
  let std = restart_lp () in
  let first = solve_exn std in
  (* branch-style bound change: clamp one structural variable *)
  let ub = Array.copy std.Model.ub in
  ub.(0) <- 0.0;
  let cold = solve_exn ~ub std in
  let warm = solve_exn ~basis:first.basis ~ub std in
  Alcotest.(check (float 1e-6)) "same objective" cold.obj warm.obj;
  Alcotest.(check bool)
    (Printf.sprintf "warm restart is cheaper (%d <= %d)" warm.iterations
       cold.iterations)
    true
    (warm.iterations <= cold.iterations)

let test_restart_without_inverse () =
  (* the O(columns) snapshot (factorization dropped, as stored on B&B nodes)
     must reconstruct the same optimum *)
  let std = restart_lp () in
  let first = solve_exn std in
  let stripped = { first.basis with Simplex.wfac = None } in
  let ub = Array.copy std.Model.ub in
  ub.(1) <- 1.0;
  let cold = solve_exn ~ub std in
  let warm = solve_exn ~basis:stripped ~ub std in
  Alcotest.(check (float 1e-6)) "same objective" cold.obj warm.obj

let test_stale_basis_falls_back () =
  (* a structurally invalid snapshot must degrade to a cold start, not
     crash or change the answer *)
  let std = restart_lp () in
  let first = solve_exn std in
  let bogus =
    {
      Simplex.wcols = Array.make (Array.length first.basis.Simplex.wcols) 0;
      wstatus = first.basis.Simplex.wstatus;
      wfac = None;
    }
  in
  let out = solve_exn ~basis:bogus std in
  Alcotest.(check (float 1e-9)) "same objective" first.obj out.obj

(* ---------- crash basis from a point ---------- *)

module Basis = Ras_mip.Basis
module D = Test_differential
module R = Ras_stats.Rng

(* The differential corpus's LPs: its 140 random bounded LPs and the 60
   feasible-by-construction ones of the warm-restart slice. *)
let crash_corpus =
  lazy
    (List.init 140 (fun k ->
         let rng = R.create (7000 + k + 1) in
         (Printf.sprintf "lp seed %d" (k + 1),
          D.random_model rng ~max_rows:60 ~max_cols:120 ~integer_frac:0.0))
    @ List.init 60 (fun k ->
          let rng = R.create (9000 + k + 1) in
          (Printf.sprintf "warm seed %d" (k + 1), D.random_feasible_model rng ~max_rows:30 ~max_cols:60)))

(* A point in the bound box, about half of it on a bound: feasible for the
   box only, so the crash meets violated rows too. *)
let box_point rng (std : Model.std) =
  Array.init std.Model.nvars (fun j ->
      let lo = std.Model.lb.(j) and hi = std.Model.ub.(j) in
      let u = R.float rng 1.0 in
      match (Float.is_finite lo, Float.is_finite hi) with
      | true, true -> if R.bool rng then (if R.bool rng then lo else hi) else lo +. (u *. (hi -. lo))
      | true, false -> if R.bool rng then lo else lo +. (5.0 *. u)
      | false, true -> if R.bool rng then hi else hi -. (5.0 *. u)
      | false, false -> (10.0 *. u) -. 5.0)

(* A seeded feasible point of an LP with optimum [xstar]: the midpoint of
   [xstar] and the optimum under a seeded random objective (both vertices
   of the feasible set, so the midpoint is feasible and often interior). *)
let feasible_point rng (std : Model.std) xstar =
  let obj = Array.init std.Model.nvars (fun _ -> R.float rng 10.0 -. 5.0) in
  match Simplex.solve { std with Model.obj } with
  | Simplex.Optimal { x; _ } -> Array.map2 (fun a b -> 0.5 *. (a +. b)) xstar x
  | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ -> xstar

let cold_optimum std =
  match Simplex.solve std with
  | Simplex.Optimal { x; obj; iterations; _ } -> Some (x, obj, iterations)
  | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ -> None

(* Every crash basis is triangular, so it factorizes from any point — box
   points that violate rows, seeded feasible points, optima and the
   all-lower-bound point — and the factors solve it: an FTRAN of the
   point's row activity has a small residual against the crash columns. *)
let test_crash_nonsingular () =
  let rng = R.create 41 in
  let bases = ref 0 in
  List.iter
    (fun (tag, std) ->
      let points =
        (std.Model.lb :: box_point rng std :: box_point rng std
        ::
        (match cold_optimum std with
        | Some (x, _, _) -> [ x; feasible_point rng std x ]
        | None -> []))
      in
      List.iter
        (fun x0 ->
          let b = Simplex.crash std x0 in
          let m = std.Model.nrows in
          Alcotest.(check int) (tag ^ ": one basic column per row") m (Array.length b.Simplex.wcols);
          let t = Basis.create ~m and col = Simplex.iter_column std in
          match Basis.refactorize t ~basis:b.Simplex.wcols ~col with
          | () ->
            incr bases;
            let act = Array.make m 0.0 in
            Array.iteri (fun j v -> col j (fun i a -> act.(i) <- act.(i) +. (a *. v))) x0;
            let x = Oracles.ftran_dense t act in
            let err = Oracles.ftran_residual ~basis:b.Simplex.wcols ~col x act in
            if err > 1e-9 then Alcotest.failf "%s: crash basis solve backward error %.3g" tag err
          | exception Basis.Singular -> Alcotest.failf "%s: crash basis singular" tag)
        points)
    (Lazy.force crash_corpus);
  Alcotest.(check bool) (Printf.sprintf "crash bases factorized (%d)" !bases) true (!bases >= 500)

(* From a seeded feasible point the crash-started solve reaches the cold
   optimum's objective (the vertex may differ: alternative optima). *)
let test_crash_solves_to_cold_objective () =
  let rng = R.create 43 in
  let solved = ref 0 in
  List.iter
    (fun (tag, std) ->
      match cold_optimum std with
      | None -> ()
      | Some (xstar, _, _) ->
        let basis = Simplex.crash std (feasible_point rng std xstar) in
        let _, cold, _ = Option.get (cold_optimum std) in
        match Simplex.solve ~basis std with
        | Simplex.Optimal { obj; x; _ } ->
          incr solved;
          if Float.abs (obj -. cold) > 1e-9 *. Float.max 1.0 (Float.abs cold) then
            Alcotest.failf "%s: crash objective %.12g vs cold %.12g" tag obj cold;
          if Model.check_solution std x <> Ok () then
            Alcotest.failf "%s: crash-started solution infeasible" tag
        | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ ->
          Alcotest.failf "%s: crash-started solve not optimal" tag)
    (Lazy.force crash_corpus);
  Alcotest.(check bool) (Printf.sprintf "crash solves checked (%d)" !solved) true (!solved >= 50)

(* The crash rebuilds most of an optimal basis from the optimum alone. *)
let test_crash_from_optimum_is_cheap () =
  let cold = ref 0 and crashed = ref 0 in
  List.iter
    (fun (_, std) ->
      match cold_optimum std with
      | None -> ()
      | Some (xstar, _, iterations) -> (
        cold := !cold + iterations;
        match Simplex.solve ~basis:(Simplex.crash std xstar) std with
        | Simplex.Optimal { iterations; _ } -> crashed := !crashed + iterations
        | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ ->
          Alcotest.fail "crash from the optimum not optimal"))
    (Lazy.force crash_corpus);
  Alcotest.(check bool)
    (Printf.sprintf "crash from x* %d pivots < 1/4 of cold %d" !crashed !cold)
    true
    (4 * !crashed < !cold)

(* Nothing strictly inside its bounds, nothing to place: all slack. *)
let test_crash_at_lower_bounds_is_all_slack () =
  List.iter
    (fun (tag, (std : Model.std)) ->
      let b = Simplex.crash std std.Model.lb in
      let n = std.Model.nvars in
      Array.iteri
        (fun i c -> if c <> n + i then Alcotest.failf "%s: row %d holds column %d" tag i c)
        b.Simplex.wcols;
      for j = 0 to n - 1 do
        if b.Simplex.wstatus.(j) <> Simplex.At_lower then
          Alcotest.failf "%s: structural %d not at its lower bound" tag j
      done)
    (Lazy.force crash_corpus)

(* ---------- hot restarts: a child solved in its parent's state ---------- *)

(* A node LP's answer, floats by their bits. *)
type answer =
  | A_optimal of {
      x : int64 array;
      obj : int64;
      iterations : int;
      dual_iterations : int;
      duals : int64 array;
      wcols : int array;
      wstatus : Simplex.col_status array;
    }
  | A_other of string

let answer = function
  | Simplex.Optimal { x; obj; iterations; dual_iterations; duals; basis; _ } ->
    let bits = Array.map Int64.bits_of_float in
    A_optimal
      {
        x = bits x;
        obj = Int64.bits_of_float obj;
        iterations;
        dual_iterations;
        duals = bits duals;
        wcols = basis.Simplex.wcols;
        wstatus = basis.Simplex.wstatus;
      }
  | Simplex.Infeasible { infeasibility } -> A_other (Printf.sprintf "infeasible %d" infeasibility)
  | Simplex.Unbounded -> A_other "unbounded"
  | Simplex.Iteration_limit _ -> A_other "iteration limit"

(* A depth-first tree over a random MIP, branching on the most fractional
   integer; the down child also lowers the first other integer resting on
   its upper bound by one, as [Branch_bound]'s twin rule moves a nonbasic
   column, so the restart must re-rest nonbasics and recompute the basics.
   Each node is solved through one workspace right after its parent was
   (re-)solved there, so it restarts hot in the parent's state, and again
   without a workspace from the parent's snapshot, which refactorizes it;
   both must answer the same, bit for bit. *)
let prop_hot_restart_matches_snapshot =
  QCheck.Test.make ~name:"hot node restart equals the solve from its snapshot" ~count:200
    QCheck.int (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let std = random_mip rng in
      let ws = Simplex.create_workspace () in
      let budget = ref 60 and same = ref true in
      let snapshot = function Simplex.Optimal { basis; _ } -> Some basis | _ -> None in
      (* [parent ()] solves the parent through [ws] and returns its snapshot *)
      let rec node ~lb ~ub ~depth parent =
        decr budget;
        let basis = parent () in
        let hot = Simplex.solve ~ws ?basis ~lb ~ub std in
        if answer hot <> answer (Simplex.solve ?basis ~lb ~ub std) then same := false;
        match hot with
        | Simplex.Optimal { x; _ } when depth < 6 -> (
          let frac j = Float.abs (x.(j) -. Float.round x.(j)) in
          let j = ref (-1) in
          for k = 0 to std.Model.nvars - 1 do
            if std.Model.integer.(k) && frac k > 1e-6 && (!j < 0 || frac k > frac !j) then j := k
          done;
          match !j with
          | -1 -> ()
          | j ->
            let again () = snapshot (Simplex.solve ~ws ?basis ~lb ~ub std) in
            let ub' = Array.copy ub and lb' = Array.copy lb in
            ub'.(j) <- Float.floor x.(j);
            lb'.(j) <- Float.ceil x.(j);
            (match
               List.find_opt
                 (fun k -> k <> j && std.Model.integer.(k) && x.(k) = ub.(k) && ub.(k) -. 1.0 >= lb.(k))
                 (List.init std.Model.nvars Fun.id)
             with
            | Some k -> ub'.(k) <- ub.(k) -. 1.0
            | None -> ());
            if !budget > 0 then node ~lb ~ub:ub' ~depth:(depth + 1) again;
            if !budget > 0 then node ~lb:lb' ~ub ~depth:(depth + 1) again)
        | _ -> ()
      in
      node ~lb:std.Model.lb ~ub:std.Model.ub ~depth:0 (fun () -> None);
      !same)

(* The snapshot a workspace solve returns carries no factors and owns its
   arrays: hot, refactorizing and cold solves through the same workspace
   leave it as it was. *)
let test_workspace_snapshot_is_owned () =
  let std = restart_lp () in
  let ws = Simplex.create_workspace () in
  let solve ?basis ?ub () =
    match Simplex.solve ~ws ?basis ?ub std with
    | Simplex.Optimal { basis; _ } -> basis
    | _ -> Alcotest.fail "expected optimal"
  in
  let first = solve () in
  Alcotest.(check bool) "no factors leave the workspace" true (Option.is_none first.Simplex.wfac);
  let wcols = Array.copy first.Simplex.wcols and wstatus = Array.copy first.Simplex.wstatus in
  let ub = Array.copy std.Model.ub in
  ub.(0) <- 0.0;
  let child = solve ~basis:first ~ub () in
  ignore (solve ~basis:child ());
  ignore (solve ~basis:first ());
  ignore (solve ());
  Alcotest.(check bool) "basis columns unchanged" true (wcols = first.Simplex.wcols);
  Alcotest.(check bool) "statuses unchanged" true (wstatus = first.Simplex.wstatus)

let suite =
  [
    Alcotest.test_case "crash basis factorizes under every starting point, small residual" `Quick
      test_crash_nonsingular;
    Alcotest.test_case "crash-started solve reaches the cold objective" `Quick
      test_crash_solves_to_cold_objective;
    Alcotest.test_case "crash from the optimum takes < 1/4 of the cold pivots" `Quick
      test_crash_from_optimum_is_cheap;
    Alcotest.test_case "crash at the lower bounds is the all-slack basis" `Quick
      test_crash_at_lower_bounds_is_all_slack;
    Alcotest.test_case "simplex restart, unchanged bounds" `Quick
      test_restart_same_bounds;
    Alcotest.test_case "simplex restart, tightened bound" `Quick
      test_restart_tightened_bound;
    Alcotest.test_case "simplex restart from stripped snapshot" `Quick
      test_restart_without_inverse;
    Alcotest.test_case "stale basis falls back to cold start" `Quick
      test_stale_basis_falls_back;
    QCheck_alcotest.to_alcotest prop_warm_matches_cold;
    QCheck_alcotest.to_alcotest prop_warm_deterministic;
    QCheck_alcotest.to_alcotest prop_hot_restart_matches_snapshot;
    Alcotest.test_case "workspace snapshot unchanged by later solves" `Quick
      test_workspace_snapshot_is_owned;
  ]
