(* Differential solver harness: the solver against
   [Oracles.lp_reference], a dense tableau simplex under Bland's rule that
   shares no code with Simplex or Basis, on a 280-instance seeded corpus
   of random bounded LPs and MIPs (140 LP + 60 warm-restart LP + 80 MIP).

   Every LP instance must agree with the reference on the verdict
   (optimal, infeasible, unbounded) and the objective (within 1e-6,
   scale-relative), and every optimal result must pass
   [Oracles.lp_certificate] — primal feasibility, dual signs and strong
   duality read off its point and duals alone.  The warm restarts re-solve
   from the first solve's basis with a tightened bound, the
   branch-and-bound child pattern that runs the dual simplex.  Each MIP's
   branch-and-bound must agree with [Oracles.mip_reference], a depth-first
   search over the tableau reference, on the status and the objective.
   The generator covers sizes up to ~60 rows × 120 columns for LPs and
   small bounded integer programs for MIPs, with free/fixed/one-sided/
   negative variable bounds and all three row senses; two thirds of the
   140 LPs anchor their rows on a point, so at least 40 cold solves are
   optimal and reach the objective and certificate checks.

   The kernel battery then pins, on the same 280 instances, the sparse
   solves against the all-steps dense solves bit for bit on the
   factorizations the solves end with and after updates on top of
   them (see [Test_sparse_kernels.pin_model_basis]): equal solves give the
   same pivots, so the hypersparse traversal cannot steer a solve. *)

open Ras_mip
module R = Ras_stats.Rng

(* ------------------------------------------------------------------ *)
(* Instance generator                                                  *)

let random_bounds rng ~finite_only =
  let roll = R.int rng 100 in
  if roll < 50 then (0.0, 1.0 +. R.float rng 9.0) (* [0, U] *)
  else if roll < 65 then
    let lo = -.(1.0 +. R.float rng 5.0) in
    (lo, lo +. 1.0 +. R.float rng 8.0) (* [L, U], L < 0 *)
  else if roll < 75 then
    let v = R.float rng 6.0 -. 3.0 in
    (v, v) (* fixed *)
  else if roll < 90 then if finite_only then (0.0, 4.0 +. R.float rng 6.0) else (0.0, infinity)
  else if finite_only then (-5.0, 5.0)
  else (neg_infinity, infinity) (* free *)

(* A point of [lb, ub], within 10 of a finite side. *)
let point_in rng (lb, ub) =
  match (Float.is_finite lb, Float.is_finite ub) with
  | true, true -> lb +. R.float rng (ub -. lb)
  | true, false -> lb +. R.float rng 10.0
  | false, true -> ub -. R.float rng 10.0
  | false, false -> R.float rng 10.0 -. 5.0

(* [anchored] draws a point in the bounds and sets every row's rhs on the
   row's value there (an equality at it, an inequality up to 5 past it), so
   the LP is feasible; otherwise rhs is uniform in [-20, 20], which leaves
   most of the larger instances infeasible. *)
let random_raw_model ?(finite_bounds = false) ?(anchored = false) rng ~max_rows ~max_cols
    ~integer_frac =
  let finite_only = finite_bounds || integer_frac > 0.0 in
  let n = 1 + R.int rng max_cols in
  let m = 1 + R.int rng max_rows in
  let mdl = Model.create () in
  let bounds =
    Array.init n (fun _ ->
        let lb, ub = random_bounds rng ~finite_only in
        let kind =
          if integer_frac > 0.0 && R.float rng 1.0 < integer_frac then Model.Integer
          else Model.Continuous
        in
        if kind = Model.Integer then (Float.round lb, Float.round ub, kind) else (lb, ub, kind))
  in
  let vars = Array.map (fun (lb, ub, kind) -> Model.add_var ~lb ~ub ~kind mdl) bounds in
  let point =
    if anchored then Array.map (fun (lb, ub, _) -> point_in rng (lb, ub)) bounds else [||]
  in
  for _ = 1 to m do
    let k = 1 + R.int rng (min 6 n) in
    let picked = Array.init n (fun i -> i) in
    R.shuffle rng picked;
    let terms =
      List.init k (fun t ->
          let c = (1.0 +. R.float rng 4.0) *. if R.bool rng then 1.0 else -1.0 in
          (c, picked.(t)))
    in
    let sense = [| Model.Le; Model.Ge; Model.Eq |].(R.int rng 3) in
    let rhs =
      if not anchored then R.float rng 40.0 -. 20.0
      else
        let at_point = List.fold_left (fun acc (c, j) -> acc +. (c *. point.(j))) 0.0 terms in
        match sense with
        | Model.Eq -> at_point
        | Model.Le -> at_point +. R.float rng 5.0
        | Model.Ge -> at_point -. R.float rng 5.0
    in
    let terms = List.map (fun (c, j) -> (c, vars.(j))) terms in
    ignore (Model.add_constraint mdl (Lin_expr.of_terms terms) sense rhs)
  done;
  let obj_terms =
    List.init n (fun j -> (R.float rng 10.0 -. 5.0, vars.(j)))
    |> List.filter (fun _ -> R.int rng 10 < 8)
  in
  Model.set_objective mdl (Lin_expr.of_terms obj_terms);
  mdl

let random_model ?finite_bounds ?anchored rng ~max_rows ~max_cols ~integer_frac =
  Model.compile (random_raw_model ?finite_bounds ?anchored rng ~max_rows ~max_cols ~integer_frac)

(* ------------------------------------------------------------------ *)
(* LP differential                                                     *)

let obj_tol a = 1e-6 *. (1.0 +. Float.abs a)

let lp_verdict = function
  | Simplex.Optimal { obj; _ } -> Printf.sprintf "optimal %g" obj
  | Simplex.Infeasible _ -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit _ -> "iteration-limit"

(* [produced] against the tableau reference on the same bounds, and the
   certificate on an optimal result. *)
let check_lp_result tag ?lb ?ub std produced =
  match (Oracles.lp_reference ?lb ?ub std, produced) with
  | Oracles.Lp_optimal r, Simplex.Optimal p -> (
    if Float.abs (r.obj -. p.obj) > obj_tol r.obj then
      Alcotest.failf "%s: objectives differ: reference %.9g vs %.9g" tag r.obj p.obj;
    match Oracles.lp_certificate ?lb ?ub std ~x:p.x ~duals:p.duals ~obj:p.obj with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: certificate fails: %s" tag msg)
  | Oracles.Lp_infeasible, Simplex.Infeasible _ -> ()
  | Oracles.Lp_unbounded, Simplex.Unbounded -> ()
  | r, p ->
    Alcotest.failf "%s: verdicts differ: reference %s vs %s" tag (Oracles.lp_verdict_name r)
      (lp_verdict p)

(* The 140 LP instances, with the generator's stream left for the caller.
   A third keeps uniform rhs (mostly infeasible), a third anchors its rows
   on a point (feasible, often unbounded along an infinite bound), and a
   third anchors them with finite bounds (optimal): the cold solves reach
   all three verdicts, and the objective and certificate checks. *)
let lp_raw_instance seed =
  let rng = R.create (7000 + seed) in
  let mdl =
    random_raw_model ~anchored:(seed mod 3 <> 0) ~finite_bounds:(seed mod 3 = 2) rng ~max_rows:60
      ~max_cols:120 ~integer_frac:0.0
  in
  (rng, mdl)

let lp_instance seed =
  let rng, mdl = lp_raw_instance seed in
  (rng, Model.compile mdl)

let test_lp_differential () =
  let count = ref 0 and optimal = ref 0 in
  for seed = 1 to 140 do
    let _, std = lp_instance seed in
    let produced = Simplex.solve std in
    check_lp_result (Printf.sprintf "seed %d" seed) std produced;
    incr count;
    match produced with Simplex.Optimal _ -> incr optimal | _ -> ()
  done;
  Alcotest.(check bool) "enough LP instances" true (!count >= 140);
  Alcotest.(check bool)
    (Printf.sprintf "optimal cold solves (%d of 140) reach the certificate" !optimal)
    true (!optimal >= 40)

(* Feasible-by-construction generator for the warm-restart differential:
   bounds are finite and every row's rhs is anchored on a random interior
   point, so the first solve is always Optimal and the tightened re-solve
   below actually runs. *)
let random_feasible_raw_model rng ~max_rows ~max_cols =
  let n = 2 + R.int rng max_cols in
  let m = 1 + R.int rng max_rows in
  let mdl = Model.create () in
  let lbs = Array.make n 0.0 and ubs = Array.make n 0.0 in
  let vars =
    Array.init n (fun j ->
        let lo = R.float rng 10.0 -. 5.0 in
        let hi = lo +. 1.0 +. R.float rng 9.0 in
        lbs.(j) <- lo;
        ubs.(j) <- hi;
        Model.add_var ~lb:lo ~ub:hi mdl)
  in
  let point = Array.init n (fun j -> lbs.(j) +. R.float rng (ubs.(j) -. lbs.(j))) in
  for _ = 1 to m do
    let k = 1 + R.int rng (min 6 n) in
    let picked = Array.init n (fun i -> i) in
    R.shuffle rng picked;
    let terms =
      List.init k (fun t ->
          let c = (1.0 +. R.float rng 4.0) *. if R.bool rng then 1.0 else -1.0 in
          (c, picked.(t)))
    in
    let at_point = List.fold_left (fun acc (c, j) -> acc +. (c *. point.(j))) 0.0 terms in
    let terms = List.map (fun (c, j) -> (c, vars.(j))) terms in
    let sense, rhs =
      match R.int rng 5 with
      | 0 -> (Model.Eq, at_point)
      | 1 | 2 -> (Model.Le, at_point +. R.float rng 5.0)
      | _ -> (Model.Ge, at_point -. R.float rng 5.0)
    in
    ignore (Model.add_constraint mdl (Lin_expr.of_terms terms) sense rhs)
  done;
  Model.set_objective mdl
    (Lin_expr.of_terms (List.init n (fun j -> (R.float rng 10.0 -. 5.0, vars.(j)))));
  mdl

let random_feasible_model rng ~max_rows ~max_cols =
  Model.compile (random_feasible_raw_model rng ~max_rows ~max_cols)

(* The warm-restart instances: the first solve's result and a tightened
   copy of one variable's bounds past its LP value, or [None] when the
   first solve is not optimal or the tightening empties the box. *)
let warm_raw_model seed = random_feasible_raw_model (R.create (9000 + seed)) ~max_rows:30 ~max_cols:60

let warm_restart seed =
  let rng = R.create (9000 + seed) in
  let std = random_feasible_model rng ~max_rows:30 ~max_cols:60 in
  match Simplex.solve std with
  | Simplex.Optimal { basis; x; _ } ->
    let j = R.int rng std.Model.nvars in
    let ub = Array.copy std.Model.ub in
    let lb = Array.copy std.Model.lb in
    if R.bool rng then ub.(j) <- Float.min ub.(j) (Float.floor x.(j))
    else lb.(j) <- Float.max lb.(j) (Float.ceil x.(j));
    if lb.(j) <= ub.(j) then Some (std, basis, lb, ub) else None
  | _ -> None

(* Warm-started differential: re-solve with tightened bounds from the first
   solve's basis — the branch-and-bound child pattern, which is the code
   path where the dual simplex actually runs. *)
let test_lp_warm_differential () =
  let exercised = ref 0 in
  for seed = 1 to 60 do
    match warm_restart seed with
    | Some (std, basis, lb, ub) ->
      incr exercised;
      check_lp_result (Printf.sprintf "warm seed %d" seed) ~lb ~ub std
        (Simplex.solve ~basis ~lb ~ub std)
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "warm restarts exercised (%d)" !exercised)
    true (!exercised >= 30)

(* ------------------------------------------------------------------ *)
(* MIP differential                                                    *)

let status_name = function
  | Branch_bound.Optimal -> "optimal"
  | Branch_bound.Feasible -> "feasible"
  | Branch_bound.Infeasible -> "infeasible"
  | Branch_bound.Unbounded -> "unbounded"
  | Branch_bound.Unknown -> "unknown"

let check_mip_instance seed std =
  let options = { Branch_bound.default_options with Branch_bound.node_limit = 20_000 } in
  let produced = Branch_bound.solve ~options std in
  match (Oracles.mip_reference std, produced.Branch_bound.status) with
  | Oracles.Mip_optimal r, Branch_bound.Optimal ->
    let p = produced.Branch_bound.objective in
    if Float.abs (r -. p) > obj_tol r then
      Alcotest.failf "seed %d: MIP objectives differ: reference %.9g vs %.9g" seed r p;
    let pb = produced.Branch_bound.best_bound in
    if pb > r +. obj_tol r then
      Alcotest.failf "seed %d: MIP bound %.9g above the reference optimum %.9g" seed pb r
  | Oracles.Mip_infeasible, Branch_bound.Infeasible -> ()
  | Oracles.Mip_unbounded, Branch_bound.Unbounded -> ()
  | r, p ->
    let r =
      match r with
      | Oracles.Mip_optimal o -> Printf.sprintf "optimal %g" o
      | Oracles.Mip_infeasible -> "infeasible"
      | Oracles.Mip_unbounded -> "unbounded"
    in
    Alcotest.failf "seed %d: MIP verdicts differ: reference %s vs %s" seed r (status_name p)

let mip_raw_model seed =
  random_raw_model (R.create (8000 + seed)) ~max_rows:8 ~max_cols:8 ~integer_frac:0.7

let mip_model seed = Model.compile (mip_raw_model seed)

let test_mip_differential () =
  let count = ref 0 in
  for seed = 1 to 80 do
    check_mip_instance seed (mip_model seed);
    incr count
  done;
  Alcotest.(check bool) "enough MIP instances" true (!count >= 80)

(* Small integer programs built from bound splits: each count is a pair
   of adjacent integer columns with the same entries in every row, the
   first bounded by a "held" count and cheaper by a positive move cost,
   plus one free-standing integer column.  Rows are anchored on a random
   integer point, with all three senses.  Branch-and-bound fixes a
   dearer twin when it branches on a pair (see [Branch_bound.solve]), and
   must still reach the depth-first oracle's optimum; some searches must
   branch. *)
let split_raw_model seed =
  let rng = R.create (8500 + seed) in
  let mdl = Model.create () in
  let columns =
    List.concat
      (List.init (1 + R.int rng 4) (fun _ ->
           let held = R.int rng 4 and rest = 1 + R.int rng 4 in
           let base = R.float rng 6.0 -. 3.0 and move = 0.5 +. R.float rng 2.0 in
           let h =
             Model.add_var ~lb:0.0 ~ub:(float_of_int held) ~kind:Model.Integer mdl
           in
           let a = Model.add_var ~lb:0.0 ~ub:(float_of_int rest) ~kind:Model.Integer mdl in
           [ ([ h; a ], R.int rng (held + rest + 1), [ base -. move; base ]) ]))
  in
  let lone = Model.add_var ~lb:0.0 ~ub:3.0 ~kind:Model.Integer mdl in
  let columns = ([ lone ], R.int rng 4, [ R.float rng 2.0 -. 1.0 ]) :: columns in
  for _ = 1 to 1 + R.int rng 5 do
    let terms, at_point =
      List.fold_left
        (fun (terms, at) (vars, count, _) ->
          if R.bool rng then (terms, at)
          else begin
            let c = (1.0 +. R.float rng 4.0) *. if R.bool rng then 1.0 else -1.0 in
            (List.map (fun v -> (c, v)) vars @ terms, at +. (c *. float_of_int count))
          end)
        ([], 0.0) columns
    in
    let sense = [| Model.Le; Model.Ge; Model.Eq |].(R.int rng 3) in
    let rhs =
      match sense with
      | Model.Le -> at_point +. R.float rng 2.0
      | Model.Ge -> at_point -. R.float rng 2.0
      | Model.Eq -> at_point
    in
    ignore (Model.add_constraint mdl (Lin_expr.of_terms terms) sense rhs)
  done;
  Model.set_objective mdl
    (Lin_expr.of_terms
       (List.concat_map (fun (vars, _, costs) -> List.combine costs vars) columns));
  mdl

let test_split_mip_differential () =
  let branched = ref 0 in
  for seed = 1 to 120 do
    let std = Model.compile (split_raw_model seed) in
    check_mip_instance seed std;
    let out = Branch_bound.solve std in
    if out.Branch_bound.nodes > 1 then incr branched
  done;
  Alcotest.(check bool) (Printf.sprintf "searches that branch (%d)" !branched) true (!branched >= 20)

(* ------------------------------------------------------------------ *)
(* Sparse-vs-dense kernel differential                                 *)

(* The traversal pin on the factorization an optimal solve ends with, and
   after [updates] updates on top of it; a solve that is not optimal
   leaves no factorization to pin. *)
let pin_result tag rng std = function
  | Simplex.Optimal { basis = { Simplex.wcols; wfac = Some fac; _ }; _ } ->
    Test_sparse_kernels.pin_model_basis tag rng std fac ~wcols ~samples:4 ~updates:6
  | _ -> 0

(* Most of the random LPs are infeasible or unbounded, so each instance
   also pins the crash basis of a random point in its box: triangular,
   hence always factorizable, and holding structural columns wherever the
   point is inside a bound. *)
let pin_crash_basis tag rng (std : Model.std) =
  let point j =
    let lo = std.Model.lb.(j) and hi = std.Model.ub.(j) in
    let lo = if Float.is_finite lo then lo else if Float.is_finite hi then hi -. 10.0 else -5.0 in
    let hi = if Float.is_finite hi then hi else lo +. 10.0 in
    lo +. R.float rng (hi -. lo)
  in
  let crash = Simplex.crash std (Array.init std.Model.nvars point) in
  let m = std.Model.nrows in
  let fac = Basis.create ~m in
  Basis.refactorize fac ~basis:crash.Simplex.wcols ~col:(Simplex.iter_column std);
  Test_sparse_kernels.pin_model_basis tag rng std fac ~wcols:crash.Simplex.wcols ~samples:4
    ~updates:6

let check_pinned what n floor =
  Alcotest.(check bool) (Printf.sprintf "%s: %d solves pinned" what n) true (n >= floor)

let test_lp_kernel_differential () =
  let pinned = ref 0 in
  for seed = 1 to 140 do
    let rng, std = lp_instance seed in
    let tag = Printf.sprintf "lp seed %d" seed in
    pinned := !pinned + pin_result tag rng std (Simplex.solve std);
    pinned := !pinned + pin_crash_basis (tag ^ " crash") rng std
  done;
  check_pinned "lp" !pinned 5_000

let test_lp_warm_kernel_differential () =
  let pinned = ref 0 in
  for seed = 1 to 60 do
    match warm_restart seed with
    | Some (std, basis, lb, ub) ->
      let rng = R.create (9500 + seed) in
      pinned :=
        !pinned
        + pin_result (Printf.sprintf "warm seed %d" seed) rng std
            (Simplex.solve ~basis ~lb ~ub std)
    | None -> ()
  done;
  check_pinned "warm lp" !pinned 1_400

(* The MIPs' root LP and the two children of its first fractional
   variable, each child warm-started from the root's basis as
   branch-and-bound does; each also against the tableau reference and the
   certificate. *)
let test_mip_kernel_differential () =
  let pinned = ref 0 in
  for seed = 1 to 80 do
    let std = mip_model seed and rng = R.create (8500 + seed) in
    let tag = Printf.sprintf "mip seed %d" seed in
    let root = Simplex.solve std in
    check_lp_result (tag ^ " root") std root;
    pinned := !pinned + pin_result (tag ^ " root") rng std root;
    match root with
    | Simplex.Optimal { x; basis; _ } -> (
      let fractional j =
        std.Model.integer.(j) && Float.abs (x.(j) -. Float.round x.(j)) > 1e-6
      in
      match List.find_opt fractional (List.init std.Model.nvars Fun.id) with
      | Some j ->
        let down = Array.copy std.Model.ub and up = Array.copy std.Model.lb in
        down.(j) <- Float.floor x.(j);
        up.(j) <- Float.ceil x.(j);
        let down_lp = Simplex.solve ~basis ~ub:down std and up_lp = Simplex.solve ~basis ~lb:up std in
        check_lp_result (tag ^ " down") ~ub:down std down_lp;
        check_lp_result (tag ^ " up") ~lb:up std up_lp;
        pinned := !pinned + pin_result (tag ^ " down") rng std down_lp;
        pinned := !pinned + pin_result (tag ^ " up") rng std up_lp
      | None -> ())
    | _ -> ()
  done;
  check_pinned "mip" !pinned 1_500

(* ------------------------------------------------------------------ *)
(* Compile pin                                                         *)

(* Rows where duplicates are the rule: 3 to 14 terms over at most 7
   variables, coefficients spread over 12 decades so the summation order
   shows in the bits, ±0 terms, and on one variable per row a pair that
   cancels exactly.  Built through add/sub/scale as well, so stored orders
   mix reversed and forward runs. *)
let duplicate_heavy_model seed =
  let rng = R.create (10_000 + seed) in
  let mdl = Model.create () in
  let n = 2 + R.int rng 6 in
  let vars = Array.init n (fun _ -> Model.add_var ~lb:(-10.0) ~ub:10.0 mdl) in
  let cancelled = Model.add_var mdl in
  let coef () =
    let c = R.float rng 1.0 *. (10.0 ** float_of_int (R.int rng 13 - 6)) in
    if R.bool rng then c else -.c
  in
  let expr () =
    let terms =
      List.init (3 + R.int rng 12) (fun _ ->
          let v = vars.(R.int rng n) in
          match R.int rng 8 with 0 -> ((if R.bool rng then 0.0 else -0.0), v) | _ -> (coef (), v))
    in
    let c = coef () in
    let e = Lin_expr.of_terms ((c, cancelled) :: terms) in
    match R.int rng 3 with
    | 0 -> Lin_expr.add e (Lin_expr.term (-.c) cancelled)
    | 1 -> Lin_expr.sub (Lin_expr.scale 2.0 e) (Lin_expr.of_terms [ (2.0 *. c, cancelled); (coef (), vars.(0)) ])
    | _ -> Lin_expr.add (Lin_expr.term (-.c) cancelled) (Lin_expr.add e (Lin_expr.of_terms terms))
  in
  for _ = 1 to 1 + R.int rng 12 do
    ignore (Model.add_constraint mdl (expr ()) [| Model.Le; Model.Ge; Model.Eq |].(R.int rng 3) (coef ()))
  done;
  Model.set_objective mdl (Lin_expr.add (expr ()) (Lin_expr.constant (coef ())));
  mdl

(* [Model.compile] equals [Oracles.compile_reference], the per-row table
   and sort it replaced, bit for bit: on the battery's 280 models, the
   golden corpus and 300 duplicate-heavy models. *)
let test_compile_matches_reference () =
  let check tag mdl =
    match Oracles.std_difference (Model.compile mdl) (Oracles.compile_reference mdl) with
    | None -> ()
    | Some field -> Alcotest.failf "%s: compiled %s differs from the reference" tag field
  in
  for seed = 1 to 140 do
    check (Printf.sprintf "lp seed %d" seed) (snd (lp_raw_instance seed))
  done;
  for seed = 1 to 60 do
    check (Printf.sprintf "warm seed %d" seed) (warm_raw_model seed)
  done;
  for seed = 1 to 80 do
    check (Printf.sprintf "mip seed %d" seed) (mip_raw_model seed)
  done;
  List.iter
    (fun (name, _) ->
      match Lp_parse.parse_model_file (Filename.concat "fixtures" name) with
      | Ok mdl -> check name mdl
      | Error msg -> Alcotest.failf "%s: parse error: %s" name msg)
    Test_mip.golden_fixtures;
  let dropped = ref 0 in
  for seed = 1 to 300 do
    let mdl = duplicate_heavy_model seed in
    check (Printf.sprintf "duplicate-heavy seed %d" seed) mdl;
    let std = Model.compile mdl in
    (* the cancelled variable sums to zero in every row and is dropped *)
    if std.Model.col_ptr.(std.Model.nvars) = std.Model.col_ptr.(std.Model.nvars - 1) then
      incr dropped
  done;
  Alcotest.(check int) "exact cancellations dropped" 300 !dropped

let suite =
  [
    Alcotest.test_case "lp: verdict, objective and certificate match the tableau oracle (140 instances)"
      `Quick test_lp_differential;
    Alcotest.test_case "lp warm restart: matches the tableau oracle and certificate (60 seeds)"
      `Quick test_lp_warm_differential;
    Alcotest.test_case "mip: verdict and objective match the depth-first oracle (80 instances)"
      `Quick test_mip_differential;
    Alcotest.test_case
      "kernels lp: sparse vs dense-oracle solves bit-identical on root and crash bases (140 instances)"
      `Quick test_lp_kernel_differential;
    Alcotest.test_case
      "kernels warm lp: sparse vs dense-oracle solves on the dual phase's bases (60 seeds)" `Quick
      test_lp_warm_kernel_differential;
    Alcotest.test_case
      "kernels mip: sparse vs dense-oracle solves on root and child bases (80 instances)" `Quick
      test_mip_kernel_differential;
    Alcotest.test_case
      "compile equals the table-and-sort reference bit for bit (battery, golden corpus, duplicates)"
      `Quick test_compile_matches_reference;
    Alcotest.test_case "mip: bound-split twins match the depth-first oracle (120 instances)" `Quick
      test_split_mip_differential;
  ]
