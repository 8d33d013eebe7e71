(* Property tests pinning the hypersparse triangular-solve kernels
   directly at the {!Basis} layer (the solver-level pinning lives in
   test_differential.ml's kernel battery):

   - seeded random sparse systems: FTRAN/BTRAN under the hypersparse
     traversal ({!Basis.Lu}) must be bit-identical to the full scan over
     the same factors ({!Basis.Lu_full_scan}), and both must agree to 1e-9
     with a Gauss-Jordan ({!Basis.Dense}) factorization of the same
     columns;
   - round trips: B·(B⁻¹b) recovers b through the factorization, before
     and after product-form eta updates;
   - the dense solves under both LU kinds: [ftran_dense] and
     [btran_dense_into] equal the sparse FTRAN/BTRAN of the same right-hand
     side entry for entry, and leave the svecs those returned untouched;
   - the fully-dense-column worst case, where the traversal's reach is the
     whole factor pattern and the kernel falls back to the full scan;
   - the dual ratio test on the bound_flip.lp golden fixture,
     warm-restarted the way branch-and-bound does it;
   - the solver-owned workspace: repeated warm solves through one
     workspace must allocate O(result) fresh words per solve, bounded via
     a [Gc.minor_words] delta. *)

open Ras_mip
module R = Ras_stats.Rng

(* ------------------------------------------------------------------ *)
(* Random sparse triangular systems                                    *)

(* Random m×m strictly column-diagonally-dominant sparse matrix: diagonal
   in [2,5], up to three off-diagonal entries per column in (-0.5, 0.5) —
   nonsingular by Gershgorin, so Markowitz elimination always completes. *)
let random_sparse_matrix rng m =
  Array.init m (fun j ->
      let entries = ref [ (j, 2.0 +. R.float rng 3.0) ] in
      for _ = 1 to R.int rng 4 do
        let i = R.int rng m in
        if i <> j && not (List.mem_assoc i !entries) then
          entries := (i, R.float rng 1.0 -. 0.5) :: !entries
      done;
      !entries)

let factorized kind m cols =
  let t = Basis.create kind ~m in
  Basis.refactorize t
    ~basis:(Array.init m (fun i -> i))
    ~col:(fun j f -> List.iter (fun (i, v) -> f i v) cols.(j));
  t

(* a random sparse right-hand-side column as parallel rows/coefs arrays *)
let random_rhs rng m =
  let k = 1 + R.int rng (max 1 (m / 4)) in
  let seen = Hashtbl.create 8 in
  let picked = ref [] in
  for _ = 1 to k do
    let i = R.int rng m in
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      picked := (i, R.float rng 4.0 -. 2.0) :: !picked
    end
  done;
  let l = List.sort compare !picked in
  (Array.of_list (List.map fst l), Array.of_list (List.map snd l))

let svec_dense m (s : Basis.Svec.t) =
  let d = Array.make m 0.0 in
  for k = 0 to s.Basis.Svec.n - 1 do
    let i = s.Basis.Svec.idx.(k) in
    d.(i) <- s.Basis.Svec.vals.(i)
  done;
  d

(* an svec's pattern and the bits of its whole backing store *)
let svec_bits (s : Basis.Svec.t) =
  (Array.sub s.Basis.Svec.idx 0 s.Basis.Svec.n, Array.map Int64.bits_of_float s.Basis.Svec.vals)

let check_bit_identical tag a b =
  Array.iteri
    (fun i va ->
      if va <> b.(i) then
        Alcotest.failf "%s: kernels disagree at %d: %h vs %h" tag i va b.(i))
    a

(* B·x for the tracked column set, x indexed by basis position *)
let apply_matrix m cur x =
  let b = Array.make m 0.0 in
  Array.iteri
    (fun pos entries -> List.iter (fun (i, v) -> b.(i) <- b.(i) +. (v *. x.(pos))) entries)
    cur;
  b

let check_round_trip tag m cur x rows coefs =
  let b = apply_matrix m cur x in
  let want = Array.make m 0.0 in
  Array.iteri (fun k i -> want.(i) <- coefs.(k)) rows;
  Array.iteri
    (fun i v ->
      if Float.abs (v -. want.(i)) > 1e-9 *. (1.0 +. Float.abs want.(i)) then
        Alcotest.failf "%s: round trip off at row %d: %.12g vs %.12g" tag i v want.(i))
    b

let test_random_sparse_triangular () =
  for seed = 1 to 40 do
    let rng = R.create (11_000 + seed) in
    let m = 5 + R.int rng 56 in
    let cols = random_sparse_matrix rng m in
    let th = factorized Basis.Lu m cols in
    let td = factorized Basis.Lu_full_scan m cols in
    let tg = factorized Basis.Dense m cols in
    (* current basis columns by position; updated as etas are applied *)
    let cur = Array.init m (fun i -> cols.(i)) in
    for pass = 1 to 3 do
      (* FTRAN: traversal vs full scan bit-identical, Gauss-Jordan to 1e-9 *)
      let rows, coefs = random_rhs rng m in
      let tag = Printf.sprintf "seed %d pass %d" seed pass in
      let ftran t =
        svec_dense m (Basis.ftran_col_sparse t rows coefs ~off:0 ~len:(Array.length rows))
      in
      let xh = ftran th and xd = ftran td in
      check_bit_identical (tag ^ " ftran") xh xd;
      let x_dense = ftran tg in
      Array.iteri
        (fun i v ->
          if Float.abs (v -. x_dense.(i)) > 1e-9 *. (1.0 +. Float.abs v) then
            Alcotest.failf "%s: sparse vs dense ftran at %d: %.12g vs %.12g" tag i v
              x_dense.(i))
        xh;
      check_round_trip (tag ^ " ftran") m cur xh rows coefs;
      (* BTRAN: a random row of the inverse, traversal vs full scan vs
         Gauss-Jordan *)
      let r = R.int rng m in
      let yh = svec_dense m (Basis.btran_unit_sparse th r) in
      let yd = svec_dense m (Basis.btran_unit_sparse td r) in
      check_bit_identical (tag ^ " btran") yh yd;
      let y_dense = svec_dense m (Basis.btran_unit_sparse tg r) in
      Array.iteri
        (fun i v ->
          if Float.abs (v -. y_dense.(i)) > 1e-9 *. (1.0 +. Float.abs v) then
            Alcotest.failf "%s: sparse vs dense btran at %d: %.12g vs %.12g" tag i v
              y_dense.(i))
        yh;
      (* the dense solves run the same passes over every step: they match
         the sparse ones entry for entry (0.0 = -0.0), and a sparse result
         held across them keeps its pattern and values *)
      let b = Array.make m 0.0 in
      Array.iteri (fun k i -> b.(i) <- coefs.(k)) rows;
      let e_r = Array.init m (fun i -> if i = r then 1.0 else 0.0) in
      List.iter
        (fun (kname, t) ->
          let tag = Printf.sprintf "%s %s" tag kname in
          let xs = Basis.ftran_col_sparse t rows coefs ~off:0 ~len:(Array.length rows) in
          let ys = Basis.btran_unit_sparse t r in
          let held = (svec_bits xs, svec_bits ys) in
          let x_full = Basis.ftran_dense t b in
          let y_full = Array.make m 0.0 in
          Basis.btran_dense_into t e_r y_full;
          if (svec_bits xs, svec_bits ys) <> held then
            Alcotest.failf "%s: a dense solve changed a held sparse result" tag;
          check_bit_identical (tag ^ " ftran_dense") x_full (svec_dense m xs);
          check_bit_identical (tag ^ " btran_dense_into") y_full (svec_dense m ys))
        [ ("lu", th); ("full scan", td) ];
      (* push a product-form eta and keep testing against the updated basis:
         enter a fresh random column at the position of its largest alpha *)
      let erows, ecoefs = random_rhs rng m in
      let ah = Basis.ftran_col_sparse th erows ecoefs ~off:0 ~len:(Array.length erows) in
      let alpha = svec_dense m ah in
      let row = ref 0 in
      Array.iteri (fun i v -> if Float.abs v > Float.abs alpha.(!row) then row := i) alpha;
      if Float.abs alpha.(!row) > 0.1 then begin
        let ad = Basis.ftran_col_sparse td erows ecoefs ~off:0 ~len:(Array.length erows) in
        let ag = Basis.ftran_col_sparse tg erows ecoefs ~off:0 ~len:(Array.length erows) in
        let okh = Basis.update_sparse th ~alpha:ah ~row:!row in
        let okd = Basis.update_sparse td ~alpha:ad ~row:!row in
        let okg = Basis.update_sparse tg ~alpha:ag ~row:!row in
        if okh <> okd || okh <> okg then Alcotest.failf "%s: update verdicts differ" tag;
        if okh then
          cur.(!row) <-
            List.init (Array.length erows) (fun k -> (erows.(k), ecoefs.(k)))
      end
    done
  done

let test_dense_column_fallback () =
  (* one column touching every row: the traversal's reach is the entire
     factor pattern, forcing the full-scan fallback — which must stay
     bit-identical to the oracle and still solve correctly *)
  for seed = 1 to 10 do
    let rng = R.create (12_000 + seed) in
    let m = 20 + R.int rng 21 in
    let cols = random_sparse_matrix rng m in
    cols.(0) <-
      List.init m (fun i -> (i, if i = 0 then 3.0 +. R.float rng 2.0 else R.float rng 1.0 -. 0.5));
    let th = factorized Basis.Lu m cols in
    let td = factorized Basis.Lu_full_scan m cols in
    let rows = Array.init m (fun i -> i) in
    let coefs = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
    let tag = Printf.sprintf "dense-col seed %d" seed in
    let xh = svec_dense m (Basis.ftran_col_sparse th rows coefs ~off:0 ~len:m) in
    let xd = svec_dense m (Basis.ftran_col_sparse td rows coefs ~off:0 ~len:m) in
    check_bit_identical tag xh xd;
    check_round_trip tag m (Array.init m (fun i -> cols.(i))) xh rows coefs
  done

(* ------------------------------------------------------------------ *)
(* Dual ratio test (bound_flip.lp warm restart)                        *)

let load_fixture name =
  match Lp_parse.parse_file (Filename.concat "fixtures" name) with
  | Ok std -> std
  | Error msg -> Alcotest.failf "%s: parse error: %s" name msg

let test_dual_ratio_restart () =
  let std = load_fixture "bound_flip.lp" in
  match Simplex.solve std with
  | Simplex.Optimal { basis; obj; _ } ->
    Alcotest.(check (float 1e-6)) "cold objective" (-10.5) obj;
    (* branch x3 down: its basic value 0.5 becomes an upper-bound
       violation.  The textbook ratio test enters the cheapest breakpoint
       each time: x4 (ratio 1) takes the 0.5 but overshoots its 0.15 box,
       x5 (ratio 0.5) takes the 0.35 left and overshoots too, and x6
       absorbs the last 0.2 — three dual pivots *)
    let ub = Array.copy std.Model.ub in
    ub.(2) <- 0.0;
    List.iter
      (fun backend ->
        match Simplex.solve ~basis ~ub ~backend std with
        | Simplex.Optimal { obj; dual_iterations; _ } ->
          Alcotest.(check (float 1e-6)) "warm objective" (-9.725) obj;
          Alcotest.(check int) "dual pivots" 3 dual_iterations
        | _ -> Alcotest.fail "warm restart: expected optimal")
      [ Basis.Lu; Basis.Lu_full_scan ]
  | _ -> Alcotest.fail "bound_flip.lp: expected optimal"

(* ------------------------------------------------------------------ *)
(* Workspace reuse: per-solve allocation bound                         *)

let alloc_test_model () =
  let rng = R.create 4242 in
  let n = 60 and m = 30 in
  let mdl = Model.create () in
  let vars = Array.init n (fun _ -> Model.add_var ~lb:0.0 ~ub:10.0 mdl) in
  for _ = 1 to m do
    let k = 2 + R.int rng 4 in
    let picked = Array.init n (fun i -> i) in
    R.shuffle rng picked;
    let terms = List.init k (fun t -> (1.0 +. R.float rng 3.0, vars.(picked.(t)))) in
    ignore (Model.add_constraint mdl (Lin_expr.of_terms terms) Model.Le (10.0 +. R.float rng 30.0))
  done;
  Model.set_objective mdl
    (Lin_expr.of_terms (List.init n (fun j -> (-.(R.float rng 5.0), vars.(j)))));
  Model.compile mdl

let test_workspace_alloc_bound () =
  let std = alloc_test_model () in
  let basis =
    match Simplex.solve std with
    | Simplex.Optimal { basis; _ } -> basis
    | _ -> Alcotest.fail "alloc model: expected optimal"
  in
  let solves = 8 in
  let measure ws_of =
    let words0 = Gc.minor_words () in
    for _ = 1 to solves do
      match Simplex.solve ~ws:(ws_of ()) ~basis std with
      | Simplex.Optimal _ -> ()
      | _ -> Alcotest.fail "warm re-solve: expected optimal"
    done;
    (Gc.minor_words () -. words0) /. float_of_int solves
  in
  (* warm-up sizes the shared workspace so the measured loop only sees
     steady-state reuse *)
  let shared = Simplex.create_workspace () in
  (match Simplex.solve ~ws:shared ~basis std with
  | Simplex.Optimal _ -> ()
  | _ -> Alcotest.fail "warm-up: expected optimal");
  let reused = measure (fun () -> shared) in
  let fresh = measure (fun () -> Simplex.create_workspace ()) in
  (* the re-solve is pivot-free, so a reused workspace leaves only the
     result arrays (x, duals, basis snapshot + factorization copy): O(rows
     + cols + factor nnz) words, far under the fresh-workspace cost *)
  if reused >= fresh then
    Alcotest.failf "workspace reuse saves nothing: %.0f vs %.0f words/solve" reused fresh;
  if reused > 25_000.0 then
    Alcotest.failf "reused-workspace solve allocates %.0f words (bound 25000)" reused

let suite =
  [
    Alcotest.test_case "random sparse systems: traversal == oracle, round trips" `Quick
      test_random_sparse_triangular;
    Alcotest.test_case "fully dense column falls back without diverging" `Quick
      test_dense_column_fallback;
    Alcotest.test_case "bound-flip dual ratio test (bound_flip.lp warm restart)" `Quick
      test_dual_ratio_restart;
    Alcotest.test_case "workspace reuse bounds per-solve allocation" `Quick
      test_workspace_alloc_bound;
  ]
