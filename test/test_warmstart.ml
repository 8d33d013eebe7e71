(* Warm-start equivalence and determinism.

   The warm-start machinery (Simplex.solve ~basis, Branch_bound warm nodes,
   candidate-list pricing) is a pure performance change: on any input it must
   return the same status and the same objective (within the 1e-6 absolute
   gap) as a branch-and-bound whose every node LP starts cold, and repeated
   runs must be bit-identical.  These tests pin that contract on a corpus of
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

(* The cold-start reference: a depth-first branch-and-bound that solves
   every node LP from scratch with Dantzig pricing and branches on the
   first fractional integer variable.  Returns the optimum, or [infinity]
   when the MIP is infeasible (the corpus has finite bounds, so no node is
   unbounded). *)
let cold_branch_and_bound (std : Model.std) =
  let best = ref infinity in
  let rec explore lb ub =
    match Simplex.solve ~pricing:Simplex.Dantzig ~lb ~ub std with
    | Simplex.Optimal { x; obj; _ } when obj < !best -> (
      let fractional j = std.Model.integer.(j) && Float.abs (x.(j) -. Float.round x.(j)) > 1e-6 in
      match List.find_opt fractional (List.init std.Model.nvars Fun.id) with
      | None -> best := obj
      | Some j ->
        let down = Array.copy ub and up = Array.copy lb in
        down.(j) <- Float.floor x.(j);
        up.(j) <- Float.ceil x.(j);
        explore lb down;
        explore up ub)
    | Simplex.Optimal _ | Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _ -> ()
  in
  explore std.Model.lb std.Model.ub;
  !best

(* ---------- equivalence: warm-started B&B = cold-started B&B ---------- *)

let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm-started B&B matches cold start" ~count:300
    QCheck.int (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      let std = random_mip rng in
      let cold = cold_branch_and_bound std in
      let warm = Branch_bound.solve std in
      (* branch-and-bound's fixed absolute optimality gap *)
      let tol = 1e-6 in
      match warm.Branch_bound.status with
      | Branch_bound.Optimal -> Float.abs (cold -. warm.Branch_bound.objective) <= tol
      | Branch_bound.Infeasible -> cold = infinity
      | Branch_bound.Feasible | Branch_bound.Unbounded | Branch_bound.Unknown -> false)

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

let suite =
  [
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
  ]
