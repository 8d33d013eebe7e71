(* Tests for ras_mip: the modeling layer, the bounded-variable simplex and
   branch-and-bound, including a brute-force cross-check on random integer
   programs. *)

open Ras_mip

let feasible std x =
  match Model.check_solution std x with Ok () -> true | Error _ -> false

(* ---------- Lin_expr ---------- *)

let test_lin_expr_combine () =
  let e = Lin_expr.of_terms [ (1.0, 0); (2.0, 1); (3.0, 0) ] in
  Alcotest.(check (float 1e-9)) "combined coef" 4.0 (Lin_expr.coef e 0);
  Alcotest.(check (float 1e-9)) "other coef" 2.0 (Lin_expr.coef e 1);
  Alcotest.(check int) "terms" 2 (Lin_expr.num_terms e)

let test_lin_expr_cancel () =
  let e = Lin_expr.sub (Lin_expr.var 0) (Lin_expr.var 0) in
  Alcotest.(check int) "cancels" 0 (Lin_expr.num_terms e)

let test_lin_expr_eval () =
  let e = Lin_expr.of_terms ~constant:1.5 [ (2.0, 0); (-1.0, 1) ] in
  Alcotest.(check (float 1e-9)) "eval" 4.5 (Lin_expr.eval e (fun v -> if v = 0 then 2.0 else 1.0))

let test_lin_expr_scale () =
  let e = Lin_expr.scale 2.0 (Lin_expr.of_terms ~constant:1.0 [ (3.0, 0) ]) in
  Alcotest.(check (float 1e-9)) "scaled coef" 6.0 (Lin_expr.coef e 0);
  Alcotest.(check (float 1e-9)) "scaled const" 2.0 (Lin_expr.get_constant e)

(* ---------- Model ---------- *)

let test_model_bounds_validation () =
  let m = Model.create () in
  Alcotest.check_raises "lb > ub" (Invalid_argument "Model.add_var: lb > ub") (fun () ->
      ignore (Model.add_var ~lb:2.0 ~ub:1.0 m))

let test_model_unknown_var_in_row () =
  let m = Model.create () in
  let _ = Model.add_var m in
  let _ = Model.add_constraint m (Lin_expr.var 5) Model.Le 1.0 in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Model.compile: row r0 references unknown variable 5") (fun () ->
      ignore (Model.compile m))

let test_model_constant_folded_into_rhs () =
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 m in
  (* x + 3 <= 5  =>  x <= 2 *)
  let _ = Model.add_constraint m (Lin_expr.of_terms ~constant:3.0 [ (1.0, x) ]) Model.Le 5.0 in
  Model.set_objective m (Lin_expr.term (-1.0) x);
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { x = sol; _ } -> Alcotest.(check (float 1e-6)) "x = 2" 2.0 sol.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_check_solution_detects_violations () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 ~kind:Model.Integer m in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Le 0.5 in
  let std = Model.compile m in
  Alcotest.(check bool) "bound violation" false (feasible std [| 2.0 |]);
  Alcotest.(check bool) "integrality violation" false (feasible std [| 0.4 |]);
  Alcotest.(check bool) "row violation" false (feasible std [| 1.0 |]);
  Alcotest.(check bool) "ok" true (feasible std [| 0.0 |])

let test_pos_part_helper () =
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 m in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Ge 7.0 in
  (* objective: 5 * max(0, x - 4): optimum picks x = 7, cost 15 *)
  let _ = Model.add_pos_part m ~weight:5.0 (Lin_expr.of_terms ~constant:(-4.0) [ (1.0, x) ]) in
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { obj; _ } -> Alcotest.(check (float 1e-6)) "cost" 15.0 obj
  | _ -> Alcotest.fail "expected optimal"

let test_max_over_helper () =
  let m = Model.create () in
  let x = Model.add_var ~lb:2.0 ~ub:2.0 m in
  let y = Model.add_var ~lb:5.0 ~ub:5.0 m in
  let z = Model.add_max_over m ~weight:1.0 [ Lin_expr.var x; Lin_expr.var y ] in
  (match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { x = sol; obj; _ } ->
    Alcotest.(check (float 1e-6)) "z = max" 5.0 sol.(z);
    Alcotest.(check (float 1e-6)) "obj" 5.0 obj
  | _ -> Alcotest.fail "expected optimal")

let test_pos_part_rejects_negative_weight () =
  let m = Model.create () in
  Alcotest.check_raises "negative weight" (Invalid_argument "Model.add_pos_part: negative weight")
    (fun () -> ignore (Model.add_pos_part m ~weight:(-1.0) Lin_expr.zero))

(* ---------- Simplex ---------- *)

let test_lp_basic () =
  let m = Model.create () in
  let x = Model.add_var ~ub:2.5 m in
  let y = Model.add_var ~ub:3.0 m in
  let _ = Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Le 4.0 in
  Model.set_objective m Lin_expr.(add (term (-1.0) x) (term (-1.0) y));
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { obj; _ } -> Alcotest.(check (float 1e-6)) "max x+y = 4" (-4.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let m = Model.create () in
  let x = Model.add_var ~ub:2.0 m in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Ge 5.0 in
  match Simplex.solve (Model.compile m) with
  | Simplex.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_lp_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Ge 1.0 in
  Model.set_objective m (Lin_expr.term (-1.0) x);
  match Simplex.solve (Model.compile m) with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_lp_equality_negative_bounds () =
  let m = Model.create () in
  let x = Model.add_var ~lb:(-1.0) ~ub:10.0 m in
  let y = Model.add_var ~ub:3.5 m in
  let _ = Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Eq 3.0 in
  Model.set_objective m (Lin_expr.var x);
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { obj; _ } -> Alcotest.(check (float 1e-6)) "min x" (-0.5) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_free_variable () =
  let m = Model.create () in
  let x = Model.add_var ~lb:neg_infinity m in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Ge (-7.0) in
  Model.set_objective m (Lin_expr.var x);
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { obj; _ } -> Alcotest.(check (float 1e-6)) "min free x" (-7.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_no_constraints () =
  let m = Model.create () in
  let x = Model.add_var ~lb:1.0 ~ub:4.0 m in
  let y = Model.add_var ~lb:(-2.0) ~ub:2.0 m in
  Model.set_objective m Lin_expr.(add (var x) (term (-1.0) y));
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { obj; _ } -> Alcotest.(check (float 1e-6)) "bounds-only" (-1.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_fixed_variable () =
  let m = Model.create () in
  let x = Model.add_var ~lb:3.0 ~ub:3.0 m in
  let y = Model.add_var ~ub:10.0 m in
  let _ = Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Le 8.0 in
  Model.set_objective m (Lin_expr.term (-1.0) y);
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { x = sol; _ } ->
    Alcotest.(check (float 1e-6)) "x stays fixed" 3.0 sol.(0);
    Alcotest.(check (float 1e-6)) "y fills remainder" 5.0 sol.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_degenerate () =
  (* multiple redundant constraints at the optimum *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m in
  let y = Model.add_var ~ub:1.0 m in
  let _ = Model.add_constraint m Lin_expr.(add (var x) (var y)) Model.Le 1.0 in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Le 1.0 in
  let _ = Model.add_constraint m Lin_expr.(add (scale 2.0 (var x)) (scale 2.0 (var y))) Model.Le 2.0 in
  Model.set_objective m Lin_expr.(add (term (-1.0) x) (term (-1.0) y));
  match Simplex.solve (Model.compile m) with
  | Simplex.Optimal { obj; _ } -> Alcotest.(check (float 1e-6)) "degenerate opt" (-1.0) obj
  | _ -> Alcotest.fail "expected optimal"

(* ---------- Branch and bound ---------- *)

let test_mip_knapsack () =
  let m = Model.create () in
  let a = Model.add_var ~kind:Model.Integer ~ub:1.0 m in
  let b = Model.add_var ~kind:Model.Integer ~ub:1.0 m in
  let c = Model.add_var ~kind:Model.Integer ~ub:1.0 m in
  let _ =
    Model.add_constraint m (Lin_expr.of_terms [ (2.0, a); (3.0, b); (1.0, c) ]) Model.Le 5.0
  in
  Model.set_objective m (Lin_expr.of_terms [ (-5.0, a); (-4.0, b); (-3.0, c) ]);
  let out = Branch_bound.solve (Model.compile m) in
  Alcotest.(check bool) "optimal" true (out.Branch_bound.status = Branch_bound.Optimal);
  Alcotest.(check (float 1e-6)) "objective" (-9.0) out.Branch_bound.objective

let test_mip_infeasible () =
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer ~ub:10.0 m in
  (* 0.4 <= x <= 0.6 has no integer point *)
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Ge 0.4 in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Le 0.6 in
  let out = Branch_bound.solve (Model.compile m) in
  Alcotest.(check bool) "infeasible" true (out.Branch_bound.status = Branch_bound.Infeasible)

let test_mip_respects_initial_incumbent () =
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer ~ub:5.0 m in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Ge 1.0 in
  Model.set_objective m (Lin_expr.var x);
  let std = Model.compile m in
  let options =
    { Branch_bound.default_options with Branch_bound.node_limit = 0; initial = Some [| 3.0 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check (float 1e-6)) "incumbent used" 3.0 out.Branch_bound.objective

let test_mip_invalid_initial_ignored () =
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer ~ub:5.0 m in
  let _ = Model.add_constraint m (Lin_expr.var x) Model.Ge 1.0 in
  Model.set_objective m (Lin_expr.var x);
  let std = Model.compile m in
  let options =
    { Branch_bound.default_options with Branch_bound.initial = Some [| -1.0 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check (float 1e-6)) "solves anyway" 1.0 out.Branch_bound.objective

let test_mip_gap_reported () =
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer ~ub:9.0 m in
  let y = Model.add_var ~kind:Model.Integer ~ub:9.0 m in
  let _ = Model.add_constraint m Lin_expr.(add (scale 2.0 (var x)) (scale 2.0 (var y))) Model.Ge 3.0 in
  Model.set_objective m Lin_expr.(add (var x) (var y));
  let out = Branch_bound.solve (Model.compile m) in
  Alcotest.(check bool) "gap closed at optimum" true (out.Branch_bound.gap < 1e-6);
  Alcotest.(check (float 1e-6)) "objective 2 (ceil of 1.5)" 2.0 out.Branch_bound.objective

let test_mip_mixed_integer () =
  (* x integer, y continuous: min -x - 10y st x + 2y <= 4.5, y <= 1.3 *)
  let m = Model.create () in
  let x = Model.add_var ~kind:Model.Integer ~ub:10.0 m in
  let y = Model.add_var ~ub:1.3 m in
  let _ = Model.add_constraint m Lin_expr.(add (var x) (scale 2.0 (var y))) Model.Le 4.5 in
  Model.set_objective m Lin_expr.(add (term (-1.0) x) (term (-10.0) y));
  let out = Branch_bound.solve (Model.compile m) in
  (* optimum is x = 2, y = 1.25: -2 - 12.5 = -14.5 (beats y = 1.3, x = 1) *)
  Alcotest.(check (float 1e-6)) "objective" (-14.5) out.Branch_bound.objective;
  match out.Branch_bound.solution with
  | Some sol ->
    Alcotest.(check (float 1e-6)) "x integral" 2.0 sol.(0);
    Alcotest.(check (float 1e-6)) "y continuous" 1.25 sol.(1)
  | None -> Alcotest.fail "no solution"

(* ---------- stale seeds are repaired or rejected, never an exception ---- *)

let bounded_mip () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~ub:5.0 ~kind:Model.Integer m in
  let y = Model.add_var ~name:"y" ~ub:5.0 ~kind:Model.Integer m in
  ignore
    (Model.add_constraint ~name:"cap" m
       (Lin_expr.of_terms [ (1.0, x); (1.0, y) ])
       Model.Le 6.0);
  Model.set_objective m (Lin_expr.of_terms [ (-1.0, x); (-2.0, y) ]);
  Model.compile m

let test_stale_seed_repaired () =
  let std = bounded_mip () in
  (* out-of-bounds and fractional: clamping + rounding makes it feasible *)
  let options =
    { Branch_bound.default_options with Branch_bound.initial = Some [| 9.5; -3.2 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check bool)
    "repaired seed counted" true
    (out.Branch_bound.seed = Branch_bound.Seed_repaired);
  Alcotest.(check (float 1e-6)) "still solves to optimality" (-11.0) out.Branch_bound.objective

let test_stale_seed_rejected () =
  let std = bounded_mip () in
  (* wrong dimension: nothing to repair, must be rejected without raising *)
  let options =
    { Branch_bound.default_options with Branch_bound.initial = Some [| 1.0 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check bool)
    "wrong-length seed rejected" true
    (out.Branch_bound.seed = Branch_bound.Seed_rejected);
  Alcotest.(check (float 1e-6)) "solve unaffected" (-11.0) out.Branch_bound.objective

let test_valid_seed_accepted () =
  let std = bounded_mip () in
  let options =
    { Branch_bound.default_options with Branch_bound.initial = Some [| 1.0; 5.0 |] }
  in
  let out = Branch_bound.solve ~options std in
  Alcotest.(check bool)
    "valid seed accepted" true
    (out.Branch_bound.seed = Branch_bound.Seed_accepted);
  Alcotest.(check (float 1e-6)) "optimal from seed" (-11.0) out.Branch_bound.objective

(* ---------- LP format ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_lp_format_sections () =
  let m = Model.create () in
  let x = Model.add_var ~name:"alpha" ~kind:Model.Integer ~ub:3.0 m in
  let _ = Model.add_constraint ~name:"cap" m (Lin_expr.var x) Model.Le 2.0 in
  Model.set_objective m (Lin_expr.var x);
  let text = Lp_format.to_string (Model.compile m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true (contains text needle))
    [ "Minimize"; "Subject To"; "Bounds"; "General"; "End"; "alpha"; "cap" ]

(* ---------- LP parse round trip ---------- *)

let std_equal (a : Model.std) (b : Model.std) =
  let feq x y =
    (Float.is_finite x && Float.is_finite y && Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x))
    || x = y
  in
  a.Model.nvars = b.Model.nvars
  && a.Model.nrows = b.Model.nrows
  && Array.for_all2 feq a.Model.lb b.Model.lb
  && Array.for_all2 feq a.Model.ub b.Model.ub
  && Array.for_all2 ( = ) a.Model.integer b.Model.integer
  && Array.for_all2 feq a.Model.obj b.Model.obj
  && Array.for_all2 ( = ) a.Model.row_sense b.Model.row_sense
  && Array.for_all2 feq a.Model.rhs b.Model.rhs
  && Array.for_all2
       (fun c1 c2 -> Array.to_list c1 = Array.to_list c2)
       a.Model.row_cols b.Model.row_cols
  && Array.for_all2
       (fun c1 c2 -> List.for_all2 feq (Array.to_list c1) (Array.to_list c2))
       a.Model.row_coefs b.Model.row_coefs

let test_lp_round_trip () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~lb:(-2.5) ~ub:7.0 ~kind:Model.Integer m in
  let y = Model.add_var ~name:"y" ~lb:neg_infinity m in
  let z = Model.add_var ~name:"z" ~lb:3.0 ~ub:3.0 m in
  let _ = Model.add_constraint ~name:"row1" m (Lin_expr.of_terms [ (2.0, x); (-1.5, y) ]) Model.Le 4.0 in
  let _ = Model.add_constraint ~name:"row2" m (Lin_expr.of_terms [ (1.0, y); (1.0, z) ]) Model.Ge (-1.0) in
  let _ = Model.add_constraint ~name:"row3" m (Lin_expr.of_terms [ (1.0, x) ]) Model.Eq 2.0 in
  Model.set_objective m (Lin_expr.of_terms [ (-1.0, x); (0.25, y) ]);
  let std = Model.compile m in
  match Lp_parse.parse (Lp_format.to_string std) with
  | Ok parsed -> Alcotest.(check bool) "round trip equal" true (std_equal std parsed)
  | Error e -> Alcotest.fail e

let test_lp_parse_rejects_garbage () =
  (match Lp_parse.parse "Minimize\n obj: 1 ghost\nBounds\nEnd\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown variable must be rejected");
  (match
     Lp_parse.parse "Minimize\n obj: 0\nSubject To\n r: 1 x 4\nBounds\n 0 <= x <= 1\nEnd\n"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "row without comparison must be rejected");
  (* non-finite numbers: each model differs from a valid one in one line,
     and the error must name that line *)
  let model ~obj ~row ~bound =
    Printf.sprintf "Minimize\n %s\nSubject To\n %s\nBounds\n %s\n 0 <= y <= 1\nEnd\n" obj row
      bound
  in
  let obj = "obj: 1 x + -2 y" and row = "r1: 1 x + 1 y <= 4" and bound = "0 <= x <= +inf" in
  let names_line bad msg =
    let n = String.length bad in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = bad || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (what, bad, line) ->
      let text =
        match line with
        | `Obj -> model ~obj:bad ~row ~bound
        | `Row -> model ~obj ~row:bad ~bound
        | `Bound -> model ~obj ~row ~bound:bad
      in
      match Lp_parse.parse text with
      | Ok _ -> Alcotest.failf "%s must be rejected" what
      | Error msg ->
        if not (names_line bad msg) then
          Alcotest.failf "%s: error %S does not name the line %S" what msg bad)
    [
      ("NaN objective coefficient", "obj: nan x + -2 y", `Obj);
      ("NaN right-hand side", "r1: 1 x + 1 y <= nan", `Row);
      ("NaN bound", "nan <= x <= +inf", `Bound);
      ("infinite objective coefficient", "obj: inf x + -2 y", `Obj);
      ("infinite row coefficient", "r1: inf x + 1 y <= 4", `Row);
      ("infinite right-hand side", "r1: 1 x + 1 y <= -inf", `Row);
      ("+inf lower bound", "+inf <= x <= +inf", `Bound);
      ("-inf upper bound", "-inf <= x <= -inf", `Bound);
      ("infinite fixed value", "x = inf", `Bound);
    ];
  (* the same model with finite numbers parses *)
  match Lp_parse.parse (model ~obj ~row ~bound) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "finite model must parse: %s" msg

let test_lp_parse_duplicate_bounds () =
  (* duplicates intersect rather than registering the variable twice *)
  (match
     Lp_parse.parse
       "Minimize\n obj: 1 x\nSubject To\n r: 1 x >= 0\nBounds\n 0 <= x <= 10\n 2 <= x <= 5\nEnd\n"
   with
  | Ok std ->
    Alcotest.(check int) "one variable" 1 std.Model.nvars;
    Alcotest.(check (float 1e-9)) "lb intersected" 2.0 std.Model.lb.(0);
    Alcotest.(check (float 1e-9)) "ub intersected" 5.0 std.Model.ub.(0)
  | Error e -> Alcotest.fail e);
  match
    Lp_parse.parse
      "Minimize\n obj: 1 x\nSubject To\n r: 1 x >= 0\nBounds\n 0 <= x <= 1\n 3 <= x <= 5\nEnd\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "contradictory duplicate bounds must be rejected"

let prop_lp_round_trip_preserves_optimum =
  QCheck.Test.make ~name:"LP write/parse preserves the optimum" ~count:150 QCheck.int
    (fun seed ->
      let module R = Ras_stats.Rng in
      let rng = R.create seed in
      let n = 2 + R.int rng 4 in
      let m = Model.create () in
      let vars =
        Array.init n (fun i ->
            let kind = if R.int rng 2 = 0 then Model.Integer else Model.Continuous in
            Model.add_var
              ~name:(Printf.sprintf "v%d" i)
              ~lb:(float_of_int (R.int rng 3 - 1))
              ~ub:(float_of_int (2 + R.int rng 5))
              ~kind m)
      in
      for r = 0 to R.int rng 3 do
        let e =
          Lin_expr.of_terms
            (List.init n (fun i -> (float_of_int (R.int rng 9 - 4), vars.(i))))
        in
        let sense = if R.int rng 2 = 0 then Model.Le else Model.Ge in
        ignore
          (Model.add_constraint
             ~name:(Printf.sprintf "r%d" r)
             m e sense
             (float_of_int (R.int rng 21 - 5)))
      done;
      Model.set_objective m
        (Lin_expr.of_terms (List.init n (fun i -> (float_of_int (R.int rng 9 - 4), vars.(i)))));
      let std = Model.compile m in
      match Lp_parse.parse (Lp_format.to_string std) with
      | Error _ -> false
      | Ok parsed ->
        let a = Branch_bound.solve std and b = Branch_bound.solve parsed in
        (match (a.Branch_bound.status, b.Branch_bound.status) with
        | Branch_bound.Optimal, Branch_bound.Optimal ->
          Float.abs (a.Branch_bound.objective -. b.Branch_bound.objective) <= 1e-6
        | sa, sb -> sa = sb))

(* ---------- randomized cross-check ---------- *)

let brute_force_case rng =
  let module R = Ras_stats.Rng in
  let n = 2 + R.int rng 3 in
  let m_rows = 1 + R.int rng 3 in
  let ubs = Array.init n (fun _ -> float_of_int (1 + R.int rng 3)) in
  let model = Model.create () in
  let vars = Array.init n (fun i -> Model.add_var ~kind:Model.Integer ~ub:ubs.(i) model) in
  let coef () = float_of_int (R.int rng 11 - 5) in
  let rows =
    Array.init m_rows (fun _ ->
        let cs = Array.init n (fun _ -> coef ()) in
        let sense =
          match R.int rng 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq
        in
        (cs, sense, float_of_int (R.int rng 15 - 5)))
  in
  Array.iter
    (fun (cs, sense, rhs) ->
      let e = Lin_expr.of_terms (List.init n (fun i -> (cs.(i), vars.(i)))) in
      ignore (Model.add_constraint model e sense rhs))
    rows;
  let obj = Array.init n (fun _ -> coef ()) in
  Model.set_objective model (Lin_expr.of_terms (List.init n (fun i -> (obj.(i), vars.(i)))));
  let std = Model.compile model in
  let best = ref infinity in
  let x = Array.make n 0 in
  let rec enum i =
    if i = n then begin
      let ok =
        Array.for_all
          (fun (cs, sense, rhs) ->
            let lhs = ref 0.0 in
            Array.iteri (fun k v -> lhs := !lhs +. (cs.(k) *. float_of_int v)) x;
            match sense with
            | Model.Le -> !lhs <= rhs +. 1e-9
            | Model.Ge -> !lhs >= rhs -. 1e-9
            | Model.Eq -> Float.abs (!lhs -. rhs) <= 1e-9)
          rows
      in
      if ok then begin
        let v = ref 0.0 in
        Array.iteri (fun k xv -> v := !v +. (obj.(k) *. float_of_int xv)) x;
        if !v < !best then best := !v
      end
    end
    else
      for v = 0 to int_of_float ubs.(i) do
        x.(i) <- v;
        enum (i + 1)
      done
  in
  enum 0;
  let out = Branch_bound.solve std in
  match (out.Branch_bound.status, Float.is_finite !best) with
  | Branch_bound.Optimal, true ->
    Float.abs (out.Branch_bound.objective -. !best) <= 1e-6
    && (match out.Branch_bound.solution with Some sol -> feasible std sol | None -> false)
  | Branch_bound.Infeasible, false -> true
  | _, _ -> false

let prop_bb_matches_brute_force =
  QCheck.Test.make ~name:"branch-and-bound matches brute force" ~count:400 QCheck.int
    (fun seed ->
      let rng = Ras_stats.Rng.create seed in
      brute_force_case rng)

let prop_lp_no_worse_than_feasible_point =
  (* construct an LP around a known feasible point; the solver must match or
     beat that point's objective *)
  QCheck.Test.make ~name:"LP optimum dominates a known feasible point" ~count:300 QCheck.int
    (fun seed ->
      let module R = Ras_stats.Rng in
      let rng = R.create seed in
      let n = 2 + R.int rng 4 in
      let model = Model.create () in
      let vars = Array.init n (fun _ -> Model.add_var ~lb:(-10.0) ~ub:10.0 model) in
      let point = Array.init n (fun _ -> float_of_int (R.int rng 9 - 4)) in
      for _ = 1 to 1 + R.int rng 4 do
        let cs = Array.init n (fun _ -> float_of_int (R.int rng 9 - 4)) in
        let lhs = ref 0.0 in
        Array.iteri (fun i c -> lhs := !lhs +. (c *. point.(i))) cs;
        (* rhs chosen so the point is feasible *)
        let e = Lin_expr.of_terms (List.init n (fun i -> (cs.(i), vars.(i)))) in
        ignore (Model.add_constraint model e Model.Le (!lhs +. float_of_int (R.int rng 3)))
      done;
      let obj = Array.init n (fun _ -> float_of_int (R.int rng 9 - 4)) in
      Model.set_objective model (Lin_expr.of_terms (List.init n (fun i -> (obj.(i), vars.(i)))));
      let point_obj = ref 0.0 in
      Array.iteri (fun i c -> point_obj := !point_obj +. (c *. point.(i))) obj;
      match Simplex.solve (Model.compile model) with
      | Simplex.Optimal { obj = solved; x; _ } ->
        solved <= !point_obj +. 1e-6 && feasible (Model.compile model) x
      | Simplex.Unbounded -> true
      | Simplex.Infeasible _ | Simplex.Iteration_limit _ -> false)

(* ---------- Golden regression corpus (test/fixtures/*.lp) ----------

   Small hand-written instances covering the solver's awkward corners
   (degeneracy, dual degeneracy, free and fixed variables, infeasibility,
   unboundedness) with hand-computed expected results.  Each fixture runs on
   both basis backends, so a factorization regression is caught by a fixed
   instance and not only by the random differential harness. *)

type golden_expect =
  | Lp_opt of float  (* LP relaxation optimum *)
  | Lp_infeas
  | Lp_unbounded
  | Mip_opt of float  (* branch-and-bound optimum *)
  | Mip_infeas

let golden_fixtures =
  [
    ("basic.lp", Lp_opt (-5.0));
    (* x is bounded twice ([0,10] then [2,5]); the declarations intersect
       and x keeps a single variable index (the duplicate used to skew every
       later index and trip an assert) *)
    ("dup_bound.lp", Lp_opt 4.0);
    ("beale.lp", Lp_opt (-0.05));
    ("kuhn_cycle.lp", Lp_opt (-2.0));
    ("degenerate.lp", Lp_opt (-2.0));
    ("dual_degenerate.lp", Lp_opt (-3.0));
    ("free_var.lp", Lp_opt (-3.0));
    ("infeasible.lp", Lp_infeas);
    ("unbounded.lp", Lp_unbounded);
    ("equality.lp", Lp_opt 4.0);
    ("negative_bounds.lp", Lp_opt (-5.0));
    ("fixed_var.lp", Lp_opt 4.0);
    ("mip_knapsack.lp", Mip_opt (-9.0));
    ("mip_infeasible.lp", Mip_infeas);
    (* 3-class symmetry-aggregated RAS allocation (see the fixture header):
       the LP relaxation covers r1's last RRU with half a c2 server (0.75);
       branch-and-bound must round it up to a whole one (0.8) *)
    ("region_scale_small.lp", Mip_opt 0.8);
    (* x1 = x2 = 1, x3 = 0.5 basic; tightening x3's upper bound to 0 turns
       the dual re-optimization into two bound flips plus one pivot — the
       warm-restart side lives in test_sparse_kernels.ml *)
    ("bound_flip.lp", Lp_opt (-10.5));
    (* d appears in every row, so its FTRAN reach is the whole factor
       pattern: the hypersparse traversal must fall back to the full scan
       and still agree with the oracle (d = 4 caps every row, x_i = 0) *)
    ("dense_col.lp", Lp_opt (-80.0));
  ]

let load_fixture name =
  match Lp_parse.parse_file (Filename.concat "fixtures" name) with
  | Ok std -> std
  | Error msg -> Alcotest.failf "%s: parse error: %s" name msg

let check_golden ?pricing backend (name, expect) =
  let std = load_fixture name in
  match expect with
  | Lp_opt want -> (
    match Simplex.solve ?pricing ~backend std with
    | Simplex.Optimal { obj; x; _ } ->
      Alcotest.(check (float 1e-6)) (name ^ " objective") want obj;
      Alcotest.(check bool) (name ^ " solution feasible") true (feasible std x)
    | _ -> Alcotest.failf "%s: expected optimal" name)
  | Lp_infeas -> (
    match Simplex.solve ?pricing ~backend std with
    | Simplex.Infeasible _ -> ()
    | _ -> Alcotest.failf "%s: expected infeasible" name)
  | Lp_unbounded -> (
    match Simplex.solve ?pricing ~backend std with
    | Simplex.Unbounded -> ()
    | _ -> Alcotest.failf "%s: expected unbounded" name)
  | Mip_opt want -> (
    let options = { Branch_bound.default_options with Branch_bound.lp_backend = backend } in
    match Branch_bound.solve ~options std with
    | { Branch_bound.status = Branch_bound.Optimal; objective; _ } ->
      Alcotest.(check (float 1e-6)) (name ^ " objective") want objective
    | o -> Alcotest.failf "%s: expected MIP optimal, got some other status (bound %g)" name
             o.Branch_bound.best_bound)
  | Mip_infeas -> (
    let options = { Branch_bound.default_options with Branch_bound.lp_backend = backend } in
    match Branch_bound.solve ~options std with
    | { Branch_bound.status = Branch_bound.Infeasible; _ } -> ()
    | _ -> Alcotest.failf "%s: expected MIP infeasible" name)

let test_golden_lu () = List.iter (check_golden Basis.Lu) golden_fixtures
let test_golden_dense () = List.iter (check_golden Basis.Dense) golden_fixtures

let test_golden_pricing_rules () =
  (* the whole corpus again under each explicit pricing rule: a pricing
     regression must be caught by a fixed instance, not only by the random
     differential harness *)
  List.iter
    (fun pricing -> List.iter (check_golden ~pricing Basis.Lu) golden_fixtures)
    [ Simplex.Dantzig; Simplex.Devex ]

(* ---------- Cycling-prone fixtures and the Bland fallback ----------

   Beale's and Kuhn's examples cycle under naive most-negative-reduced-cost
   pricing; the solver must terminate with the right optimum under every
   pricing rule on both backends, and the Bland anti-cycling fallback must
   demonstrably engage when the degenerate-pivot budget is exhausted. *)

let cycling_fixtures = [ ("beale.lp", -0.05); ("kuhn_cycle.lp", -2.0) ]

let test_cycling_terminates_all_rules () =
  List.iter
    (fun (name, want) ->
      let std = load_fixture name in
      List.iter
        (fun pricing ->
          List.iter
            (fun backend ->
              match Simplex.solve ~pricing ~backend std with
              | Simplex.Optimal { obj; x; _ } ->
                Alcotest.(check (float 1e-6)) (name ^ " objective") want obj;
                Alcotest.(check bool) (name ^ " solution feasible") true (feasible std x)
              | _ -> Alcotest.failf "%s: expected optimal" name)
            [ Basis.Lu; Basis.Dense ])
        [ Simplex.Dantzig; Simplex.Devex ])
    cycling_fixtures

let test_bland_fallback_triggers () =
  (* both fixtures start degenerate at the origin, so with a zero
     degenerate-pivot budget the very first degenerate pivot flips the
     solve into Bland mode — observable through [bland_iterations] — and
     the answer must not change *)
  let hits = ref 0 in
  List.iter
    (fun (name, want) ->
      let std = load_fixture name in
      List.iter
        (fun pricing ->
          match Simplex.solve ~pricing ~degen_limit:0 std with
          | Simplex.Optimal { obj; bland_iterations; _ } ->
            Alcotest.(check (float 1e-6)) (name ^ " objective under bland") want obj;
            if bland_iterations > 0 then incr hits
          | _ -> Alcotest.failf "%s: expected optimal under degen_limit:0" name)
        [ Simplex.Dantzig; Simplex.Devex ])
    cycling_fixtures;
  Alcotest.(check bool)
    (Printf.sprintf "bland fallback engaged (%d solves)" !hits)
    true (!hits > 0)

let test_golden_corpus_complete () =
  (* every committed fixture must appear in the expectation table *)
  let on_disk =
    Sys.readdir "fixtures"
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".lp")
    |> List.sort compare
  in
  let listed = List.map fst golden_fixtures |> List.sort compare in
  Alcotest.(check (list string)) "fixtures all have expectations" on_disk listed

let suite =
  [
    Alcotest.test_case "lin_expr combines duplicates" `Quick test_lin_expr_combine;
    Alcotest.test_case "lin_expr cancellation" `Quick test_lin_expr_cancel;
    Alcotest.test_case "lin_expr eval" `Quick test_lin_expr_eval;
    Alcotest.test_case "lin_expr scale" `Quick test_lin_expr_scale;
    Alcotest.test_case "model bounds validation" `Quick test_model_bounds_validation;
    Alcotest.test_case "model unknown var" `Quick test_model_unknown_var_in_row;
    Alcotest.test_case "model folds expr constant" `Quick test_model_constant_folded_into_rhs;
    Alcotest.test_case "check_solution" `Quick test_check_solution_detects_violations;
    Alcotest.test_case "pos_part helper" `Quick test_pos_part_helper;
    Alcotest.test_case "max_over helper" `Quick test_max_over_helper;
    Alcotest.test_case "pos_part weight check" `Quick test_pos_part_rejects_negative_weight;
    Alcotest.test_case "lp basic" `Quick test_lp_basic;
    Alcotest.test_case "lp infeasible" `Quick test_lp_infeasible;
    Alcotest.test_case "lp unbounded" `Quick test_lp_unbounded;
    Alcotest.test_case "lp equality + negative bounds" `Quick test_lp_equality_negative_bounds;
    Alcotest.test_case "lp free variable" `Quick test_lp_free_variable;
    Alcotest.test_case "lp bounds only" `Quick test_lp_no_constraints;
    Alcotest.test_case "lp fixed variable" `Quick test_lp_fixed_variable;
    Alcotest.test_case "lp degenerate" `Quick test_lp_degenerate;
    Alcotest.test_case "mip knapsack" `Quick test_mip_knapsack;
    Alcotest.test_case "mip infeasible window" `Quick test_mip_infeasible;
    Alcotest.test_case "mip initial incumbent" `Quick test_mip_respects_initial_incumbent;
    Alcotest.test_case "mip invalid initial ignored" `Quick test_mip_invalid_initial_ignored;
    Alcotest.test_case "stale seed repaired" `Quick test_stale_seed_repaired;
    Alcotest.test_case "stale seed rejected" `Quick test_stale_seed_rejected;
    Alcotest.test_case "valid seed accepted" `Quick test_valid_seed_accepted;
    Alcotest.test_case "mip gap and rounding" `Quick test_mip_gap_reported;
    Alcotest.test_case "mip mixed integer" `Quick test_mip_mixed_integer;
    Alcotest.test_case "lp format sections" `Quick test_lp_format_sections;
    Alcotest.test_case "lp parse round trip" `Quick test_lp_round_trip;
    Alcotest.test_case "lp parse rejects garbage" `Quick test_lp_parse_rejects_garbage;
    Alcotest.test_case "lp parse duplicate bounds" `Quick test_lp_parse_duplicate_bounds;
    Alcotest.test_case "golden corpus (LU backend)" `Quick test_golden_lu;
    Alcotest.test_case "golden corpus (dense backend)" `Quick test_golden_dense;
    Alcotest.test_case "golden corpus covers all fixtures" `Quick test_golden_corpus_complete;
    Alcotest.test_case "golden corpus under all pricing rules" `Quick
      test_golden_pricing_rules;
    Alcotest.test_case "cycling fixtures terminate under all rules" `Quick
      test_cycling_terminates_all_rules;
    Alcotest.test_case "bland anti-cycling fallback triggers" `Quick
      test_bland_fallback_triggers;
    QCheck_alcotest.to_alcotest prop_lp_round_trip_preserves_optimum;
    QCheck_alcotest.to_alcotest prop_bb_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_lp_no_worse_than_feasible_point;
  ]
