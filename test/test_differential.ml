(* Differential solver harness: every pricing rule (Dantzig, Devex) on
   every basis backend (dense inverse, LU + eta) against one reference
   configuration — full Dantzig scan on the dense inverse — on a
   280-instance seeded corpus of random bounded LPs and MIPs (140 LP + 60
   warm-restart LP + 80 MIP).  The LP references are cold solves; the MIP
   reference's child nodes restart warm like every other configuration.

   Every generated instance is solved under all four pricing×backend
   combinations; each must agree with the reference on the feasibility
   verdict, the objective value (within 1e-6, scale-relative) and — for
   MIPs — the branch-and-bound best bound.  The generator covers sizes up
   to ~60 rows × 120 columns for LPs and small bounded integer programs
   for MIPs, with free/fixed/one-sided/negative variable bounds and all
   three row senses.

   The same 280-instance corpus is then re-solved under both LU kinds
   (hypersparse traversal vs the full-scan reference) with a strictly
   tighter contract: bit-identical pivot
   counts, bases, and search traces, objectives within 1e-9. *)

open Ras_mip
module R = Ras_stats.Rng

let reference_backend = Basis.Dense
let production_backend = Basis.Lu

(* the full pricing × backend matrix every instance is solved under *)
let all_pricings =
  [ ("dantzig", Simplex.Dantzig); ("devex", Simplex.Devex) ]

let all_backends = [ ("dense", Basis.Dense); ("lu", Basis.Lu) ]

let iter_configs f =
  List.iter
    (fun (pname, pricing) ->
      List.iter (fun (bname, backend) -> f ~pname ~pricing ~bname ~backend) all_backends)
    all_pricings

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

let random_model ?(finite_bounds = false) rng ~max_rows ~max_cols ~integer_frac =
  let finite_only = finite_bounds || integer_frac > 0.0 in
  let n = 1 + R.int rng max_cols in
  let m = 1 + R.int rng max_rows in
  let mdl = Model.create () in
  let vars =
    Array.init n (fun _ ->
        let lb, ub = random_bounds rng ~finite_only in
        let kind =
          if integer_frac > 0.0 && R.float rng 1.0 < integer_frac then Model.Integer
          else Model.Continuous
        in
        let lb, ub =
          if kind = Model.Integer then (Float.round lb, Float.round ub) else (lb, ub)
        in
        Model.add_var ~lb ~ub ~kind mdl)
  in
  for _ = 1 to m do
    let k = 1 + R.int rng (min 6 n) in
    let picked = Array.init n (fun i -> i) in
    R.shuffle rng picked;
    let terms =
      List.init k (fun t ->
          let c = (1.0 +. R.float rng 4.0) *. if R.bool rng then 1.0 else -1.0 in
          (c, vars.(picked.(t))))
    in
    let sense = R.pick rng [| Model.Le; Model.Ge; Model.Eq |] in
    let rhs = R.float rng 40.0 -. 20.0 in
    ignore (Model.add_constraint mdl (Lin_expr.of_terms terms) sense rhs)
  done;
  let obj_terms =
    List.init n (fun j -> (R.float rng 10.0 -. 5.0, vars.(j)))
    |> List.filter (fun _ -> R.int rng 10 < 8)
  in
  Model.set_objective mdl (Lin_expr.of_terms obj_terms);
  Model.compile mdl

(* ------------------------------------------------------------------ *)
(* LP differential                                                     *)

let obj_tol a = 1e-6 *. (1.0 +. Float.abs a)

let lp_verdict = function
  | Simplex.Optimal { obj; _ } -> Printf.sprintf "optimal %g" obj
  | Simplex.Infeasible _ -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit _ -> "iteration-limit"

let check_lp_instance seed std =
  let reference =
    Simplex.solve ~pricing:Simplex.Dantzig ~backend:reference_backend std
  in
  iter_configs (fun ~pname ~pricing ~bname ~backend ->
      let produced = Simplex.solve ~pricing ~backend std in
      match (reference, produced) with
      | Simplex.Optimal r, Simplex.Optimal p ->
        if Float.abs (r.obj -. p.obj) > obj_tol r.obj then
          Alcotest.failf "seed %d [%s/%s]: objectives differ: ref %.9g vs %.9g" seed pname
            bname r.obj p.obj;
        (match Model.check_solution std p.x with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "seed %d [%s/%s]: solution infeasible: %s" seed pname bname msg)
      | Simplex.Infeasible _, Simplex.Infeasible _ -> ()
      | Simplex.Unbounded, Simplex.Unbounded -> ()
      | r, p ->
        Alcotest.failf "seed %d [%s/%s]: verdicts differ: ref %s vs %s" seed pname bname
          (lp_verdict r) (lp_verdict p))

let test_lp_differential () =
  let count = ref 0 in
  for seed = 1 to 140 do
    let rng = R.create (7000 + seed) in
    let std = random_model rng ~max_rows:60 ~max_cols:120 ~integer_frac:0.0 in
    check_lp_instance seed std;
    incr count
  done;
  Alcotest.(check bool) "enough LP instances" true (!count >= 140)

(* Feasible-by-construction generator for the warm-restart differential:
   bounds are finite and every row's rhs is anchored on a random interior
   point, so the first solve is always Optimal and the tightened re-solve
   below actually runs. *)
let random_feasible_model rng ~max_rows ~max_cols =
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
  Model.compile mdl

(* Warm-started differential: re-solve with tightened bounds from the first
   solve's basis — the branch-and-bound child pattern, which is the code
   path where the dual simplex actually runs. *)
let test_lp_warm_differential () =
  let exercised = ref 0 in
  for seed = 1 to 60 do
    let rng = R.create (9000 + seed) in
    let std = random_feasible_model rng ~max_rows:30 ~max_cols:60 in
    match Simplex.solve ~backend:production_backend std with
    | Simplex.Optimal { basis; x; _ } ->
      (* tighten a random variable's bound past its LP value *)
      let j = R.int rng std.Model.nvars in
      let ub = Array.copy std.Model.ub in
      let lb = Array.copy std.Model.lb in
      if R.bool rng then ub.(j) <- Float.min ub.(j) (Float.floor x.(j))
      else lb.(j) <- Float.max lb.(j) (Float.ceil x.(j));
      if lb.(j) <= ub.(j) then begin
        incr exercised;
        let reference =
          Simplex.solve ~pricing:Simplex.Dantzig ~backend:reference_backend ~lb ~ub std
        in
        iter_configs (fun ~pname ~pricing ~bname ~backend ->
            let produced = Simplex.solve ~pricing ~backend ~basis ~lb ~ub std in
            match (reference, produced) with
            | Simplex.Optimal r, Simplex.Optimal p ->
              if Float.abs (r.obj -. p.obj) > obj_tol r.obj then
                Alcotest.failf "warm seed %d [%s/%s]: objectives differ: %.9g vs %.9g"
                  seed pname bname r.obj p.obj
            | Simplex.Infeasible _, Simplex.Infeasible _ -> ()
            | Simplex.Unbounded, Simplex.Unbounded -> ()
            | r, p ->
              Alcotest.failf "warm seed %d [%s/%s]: verdicts differ: %s vs %s" seed pname
                bname (lp_verdict r) (lp_verdict p))
      end
    | _ -> ()
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
  let solve pricing backend =
    let options =
      {
        Branch_bound.default_options with
        Branch_bound.lp_pricing = pricing;
        lp_backend = backend;
        node_limit = 20_000;
      }
    in
    Branch_bound.solve ~options std
  in
  let reference = solve Simplex.Dantzig reference_backend in
  iter_configs (fun ~pname ~pricing ~bname ~backend ->
      let produced = solve pricing backend in
      if reference.Branch_bound.status <> produced.Branch_bound.status then
        Alcotest.failf "seed %d [%s/%s]: MIP status differs: ref %s vs %s" seed pname bname
          (status_name reference.Branch_bound.status)
          (status_name produced.Branch_bound.status);
      match reference.Branch_bound.status with
      | Branch_bound.Optimal ->
        let r = reference.Branch_bound.objective and p = produced.Branch_bound.objective in
        if Float.abs (r -. p) > obj_tol r then
          Alcotest.failf "seed %d [%s/%s]: MIP objectives differ: ref %.9g vs %.9g" seed
            pname bname r p;
        let rb = reference.Branch_bound.best_bound
        and pb = produced.Branch_bound.best_bound in
        if Float.abs (rb -. pb) > obj_tol rb then
          Alcotest.failf "seed %d [%s/%s]: MIP bounds differ: ref %.9g vs %.9g" seed pname
            bname rb pb
      | _ -> ())

let test_mip_differential () =
  let count = ref 0 in
  for seed = 1 to 80 do
    let rng = R.create (8000 + seed) in
    let std = random_model rng ~max_rows:8 ~max_cols:8 ~integer_frac:0.7 in
    check_mip_instance seed std;
    incr count
  done;
  Alcotest.(check bool) "enough MIP instances" true (!count >= 80)

(* ------------------------------------------------------------------ *)
(* Sparse-vs-dense kernel differential                                 *)

(* The two LU kinds ({!Basis.Lu} graph traversal vs {!Basis.Lu_full_scan}
   full scans) perform bit-identical floating point operations — the
   entries a traversal skips are structural zeros — so a solve under either
   kind must take the *same pivot sequence*, not merely reach the same
   optimum.  The full 280-instance corpus (the same 140 LP + 60
   warm-restart + 80 MIP seeds as above) is re-solved here under both
   kinds × both pricing rules, asserting identical pivot counts, identical
   final bases, matching verdicts, and objectives within 1e-9.  The warm
   restarts hand both kinds the production solve's factorization, which
   each adopts. *)

let kernel_tol a = 1e-9 *. (1.0 +. Float.abs a)

let check_lp_kernel_pair ?basis ?lb ?ub tag std =
  List.iter
    (fun (pname, pricing) ->
      let solve backend = Simplex.solve ~pricing ~backend ?basis ?lb ?ub std in
      let sparse = solve production_backend and oracle = solve Basis.Lu_full_scan in
      match (sparse, oracle) with
      | ( Simplex.Optimal
            { iterations = si; dual_iterations = sdi; obj = so; basis = sb; kstats = sk; _ },
          Simplex.Optimal
            { iterations = oi; dual_iterations = odi; obj = oo; basis = ob; kstats = ok; _ } )
        ->
        if si <> oi || sdi <> odi then
          Alcotest.failf "%s [%s]: pivot counts differ: sparse %d/%d vs oracle %d/%d" tag
            pname si sdi oi odi;
        if Float.abs (so -. oo) > kernel_tol oo then
          Alcotest.failf "%s [%s]: objectives differ: %.12g vs %.12g" tag pname so oo;
        if sb.Simplex.wcols <> ob.Simplex.wcols || sb.Simplex.wstatus <> ob.Simplex.wstatus
        then Alcotest.failf "%s [%s]: final bases differ" tag pname;
        if sk.Simplex.bound_flips <> ok.Simplex.bound_flips then
          Alcotest.failf "%s [%s]: bound-flip counts differ: %d vs %d" tag pname
            sk.Simplex.bound_flips ok.Simplex.bound_flips
      | ( Simplex.Infeasible { infeasibility = a },
          Simplex.Infeasible { infeasibility = b } ) ->
        if a <> b then
          Alcotest.failf "%s [%s]: infeasibility counts differ: %d vs %d" tag pname a b
      | Simplex.Unbounded, Simplex.Unbounded -> ()
      | s, o ->
        Alcotest.failf "%s [%s]: verdicts differ: sparse %s vs oracle %s" tag pname
          (lp_verdict s) (lp_verdict o))
    all_pricings

let test_lp_kernel_differential () =
  for seed = 1 to 140 do
    let rng = R.create (7000 + seed) in
    let std = random_model rng ~max_rows:60 ~max_cols:120 ~integer_frac:0.0 in
    check_lp_kernel_pair (Printf.sprintf "lp seed %d" seed) std
  done

let test_lp_warm_kernel_differential () =
  let exercised = ref 0 in
  for seed = 1 to 60 do
    let rng = R.create (9000 + seed) in
    let std = random_feasible_model rng ~max_rows:30 ~max_cols:60 in
    match Simplex.solve ~backend:production_backend std with
    | Simplex.Optimal { basis; x; _ } ->
      let j = R.int rng std.Model.nvars in
      let ub = Array.copy std.Model.ub in
      let lb = Array.copy std.Model.lb in
      if R.bool rng then ub.(j) <- Float.min ub.(j) (Float.floor x.(j))
      else lb.(j) <- Float.max lb.(j) (Float.ceil x.(j));
      if lb.(j) <= ub.(j) then begin
        incr exercised;
        (* warm restart with the dual phase on: the bound-flip ratio test
           runs here, and its flip counts must agree across kernels too *)
        check_lp_kernel_pair ~basis ~lb ~ub (Printf.sprintf "warm seed %d" seed) std
      end
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "warm restarts exercised (%d)" !exercised)
    true (!exercised >= 30)

let test_mip_kernel_differential () =
  for seed = 1 to 80 do
    let rng = R.create (8000 + seed) in
    let std = random_model rng ~max_rows:8 ~max_cols:8 ~integer_frac:0.7 in
    List.iter
      (fun (pname, pricing) ->
        let solve backend =
          let options =
            {
              Branch_bound.default_options with
              Branch_bound.lp_pricing = pricing;
              lp_backend = backend;
              node_limit = 20_000;
            }
          in
          Branch_bound.solve ~options std
        in
        let s = solve production_backend and o = solve Basis.Lu_full_scan in
        if s.Branch_bound.status <> o.Branch_bound.status then
          Alcotest.failf "mip seed %d [%s]: statuses differ: %s vs %s" seed pname
            (status_name s.Branch_bound.status)
            (status_name o.Branch_bound.status);
        if s.Branch_bound.nodes <> o.Branch_bound.nodes
           || s.Branch_bound.lp_iterations <> o.Branch_bound.lp_iterations
           || s.Branch_bound.dual_pivots <> o.Branch_bound.dual_pivots
           || s.Branch_bound.bound_flips <> o.Branch_bound.bound_flips
        then
          Alcotest.failf
            "mip seed %d [%s]: search traces differ: %d/%d/%d/%d vs %d/%d/%d/%d" seed pname
            s.Branch_bound.nodes s.Branch_bound.lp_iterations s.Branch_bound.dual_pivots
            s.Branch_bound.bound_flips o.Branch_bound.nodes o.Branch_bound.lp_iterations
            o.Branch_bound.dual_pivots o.Branch_bound.bound_flips;
        match s.Branch_bound.status with
        | Branch_bound.Optimal ->
          if
            Float.abs (s.Branch_bound.objective -. o.Branch_bound.objective)
            > kernel_tol o.Branch_bound.objective
            || Float.abs (s.Branch_bound.best_bound -. o.Branch_bound.best_bound)
               > kernel_tol o.Branch_bound.best_bound
          then
            Alcotest.failf "mip seed %d [%s]: objectives/bounds differ: %.12g/%.12g vs %.12g/%.12g"
              seed pname s.Branch_bound.objective s.Branch_bound.best_bound
              o.Branch_bound.objective o.Branch_bound.best_bound
        | _ -> ())
      all_pricings
  done

let suite =
  [
    Alcotest.test_case "lp: 3 pricing rules x 2 backends match oracle (140 instances)"
      `Quick test_lp_differential;
    Alcotest.test_case "lp warm restart: all configs match oracle (60 seeds)" `Quick
      test_lp_warm_differential;
    Alcotest.test_case "mip: all configs match oracle bounds/verdicts (80 instances)"
      `Quick test_mip_differential;
    Alcotest.test_case
      "kernels lp: sparse vs dense-oracle bit-identical pivots (140 instances)" `Quick
      test_lp_kernel_differential;
    Alcotest.test_case
      "kernels warm lp: sparse vs dense-oracle incl. bound flips (60 seeds)" `Quick
      test_lp_warm_kernel_differential;
    Alcotest.test_case
      "kernels mip: sparse vs dense-oracle identical search traces (80 instances)" `Quick
      test_mip_kernel_differential;
  ]
