(* Property tests pinning the hypersparse triangular-solve kernels
   directly at the {!Basis} layer:

   - the traversal pin: on the same factors, every sparse solve
     ([ftran_col_sparse], [ftran_unit_sparse], [btran_unit_sparse]) must
     equal the all-steps dense solve ([ftran_dense_in_place],
     [btran_dense_into]) bit for bit (+0 and -0 count as equal), with a
     pattern that is exactly the dense result's nonzero set.  Equal
     solves give equal pivot
     choices, so the pin also stands for a whole solve taking the same
     pivots under either traversal.  [pin_model_basis] runs it, with the
     residual checks below, on the factorizations the differential
     battery's, the LU identity battery's and the region-scale solves end
     with, and after each of several Forrest–Tomlin updates on top of them;
   - residuals: ‖B·x − b‖ and ‖Bᵀ·y − c‖ ([Oracles.ftran_residual],
     [Oracles.btran_residual], with B rebuilt from the basis columns)
     after every refactorization and every update on seeded random sparse
     systems;
   - a sparse result held across a dense solve keeps its pattern and
     values;
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
(* The traversal pin and residual checks                               *)

(* The bits of [v], with -0 read as +0. *)
let bits v = if v = 0.0 then 0L else Int64.bits_of_float v

(* The sparse result [s] against the dense result [dense] of the same
   solve on the same factors. *)
let check_same_solve tag (s : Basis.Svec.t) (dense : float array) =
  let nonzeros = Array.fold_left (fun n v -> if v <> 0.0 then n + 1 else n) 0 dense in
  if s.Basis.Svec.n <> nonzeros then
    Alcotest.failf "%s: sparse pattern holds %d entries, the dense solve %d nonzeros" tag
      s.Basis.Svec.n nonzeros;
  for u = 0 to s.Basis.Svec.n - 1 do
    let i = s.Basis.Svec.idx.(u) in
    if u > 0 && i <= s.Basis.Svec.idx.(u - 1) then
      Alcotest.failf "%s: sparse pattern not ascending at %d" tag u;
    if bits s.Basis.Svec.vals.(i) <> bits dense.(i) then
      Alcotest.failf "%s: sparse vs dense at %d: %h vs %h" tag i s.Basis.Svec.vals.(i) dense.(i)
  done

(* FTRAN of the packed column [rows]/[coefs].[off .. off+len-1], sparse
   against dense; returns the sparse result (the factorization's FTRAN
   svec), the dense one and the right-hand side. *)
let pin_ftran tag t rows coefs ~off ~len =
  let m = Basis.dim t in
  let b = Array.make m 0.0 in
  for k = off to off + len - 1 do
    b.(rows.(k)) <- b.(rows.(k)) +. coefs.(k)
  done;
  let s = Basis.ftran_col_sparse t rows coefs ~off ~len in
  let x = Oracles.ftran_dense t b in
  check_same_solve (tag ^ " ftran") s x;
  (s, x, b)

(* Row [r] of B^-1, sparse against dense; returns the dense result and the
   unit right-hand side. *)
let pin_btran tag t r =
  let m = Basis.dim t in
  let c = Array.init m (fun i -> if i = r then 1.0 else 0.0) in
  let s = Basis.btran_unit_sparse t r in
  let y = Array.make m 0.0 in
  Basis.btran_dense_into t c y;
  check_same_solve (tag ^ " btran") s y;
  (y, c)

(* The position of [alpha]'s largest |entry|, the pivot row the updates
   below take; -1 for an empty vector. *)
let largest_entry (alpha : Basis.Svec.t) =
  let row = ref (-1) in
  for u = 0 to alpha.Basis.Svec.n - 1 do
    let i = alpha.Basis.Svec.idx.(u) in
    if !row < 0 || Float.abs alpha.Basis.Svec.vals.(i) > Float.abs alpha.Basis.Svec.vals.(!row) then
      row := i
  done;
  !row

(* Largest backward error the residual checks accept: a backward-stable
   solve reads ~1e-16 times a small factor, a wrong entry O(1). *)
let residual_tol = 1e-9

let check_residual tag what err =
  if not (err <= residual_tol) then Alcotest.failf "%s: %s backward error %.3g" tag what err

(* The traversal pin and the residual checks on the factorization [fac] of
   the basis [wcols] of [std] (a copy: [fac] itself is not touched), on
   [samples] random structural or slack columns' FTRAN and basis
   positions' BTRAN; then again after each of [updates] updates that
   enter a random nonbasic column at the position of its largest |alpha|.
   Returns the number of solves pinned. *)
let pin_model_basis tag rng (std : Model.std) fac ~wcols ~samples ~updates =
  let m = std.Model.nrows and ntotal = std.Model.nvars + std.Model.nrows in
  let t = Basis.copy fac and basis = Array.copy wcols in
  let col = Simplex.iter_column std in
  let ftran j =
    let tag = Printf.sprintf "%s column %d" tag j in
    if j < std.Model.nvars then begin
      let off = std.Model.col_ptr.(j) in
      pin_ftran tag t std.Model.col_ind std.Model.col_val ~off ~len:(std.Model.col_ptr.(j + 1) - off)
    end
    else begin
      let r = j - std.Model.nvars in
      let _, x, b = pin_ftran tag t [| r |] [| 1.0 |] ~off:0 ~len:1 in
      let s = Basis.ftran_unit_sparse t r in
      check_same_solve (tag ^ " unit ftran") s x;
      (s, x, b)
    end
  in
  let pinned = ref 0 in
  let check stage =
    let tag = Printf.sprintf "%s %s" tag stage in
    for _ = 1 to samples do
      let _, x, b = ftran (R.int rng ntotal) in
      check_residual tag "ftran" (Oracles.ftran_residual ~basis ~col x b);
      let r = R.int rng m in
      let y, c = pin_btran (Printf.sprintf "%s position %d" tag r) t r in
      check_residual tag "btran" (Oracles.btran_residual ~basis ~col y c);
      pinned := !pinned + 2
    done
  in
  check "as factored";
  let in_basis = Array.make ntotal false in
  Array.iter (fun j -> in_basis.(j) <- true) basis;
  (* a random nonbasic column, if a few draws find one *)
  let rec nonbasic tries =
    let j = R.int rng ntotal in
    if not in_basis.(j) then Some j else if tries > 1 then nonbasic (tries - 1) else None
  in
  for k = 1 to updates do
    match nonbasic 20 with
    | None -> ()
    | Some j ->
      let alpha, _, _ = ftran j in
      let row = largest_entry alpha in
      if row >= 0 && Basis.update_sparse t ~alpha ~row then begin
        in_basis.(basis.(row)) <- false;
        in_basis.(j) <- true;
        basis.(row) <- j;
        check (Printf.sprintf "after update %d" k)
      end
  done;
  !pinned

(* ------------------------------------------------------------------ *)
(* Random sparse systems                                               *)

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

let factorized m cols =
  let t = Basis.create ~m in
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

(* an svec's pattern and the bits of its whole backing store *)
let svec_bits (s : Basis.Svec.t) =
  (Array.sub s.Basis.Svec.idx 0 s.Basis.Svec.n, Array.map Int64.bits_of_float s.Basis.Svec.vals)

let test_random_sparse_triangular () =
  for seed = 1 to 40 do
    let rng = R.create (11_000 + seed) in
    let m = 5 + R.int rng 56 in
    let cols = random_sparse_matrix rng m in
    let t = factorized m cols in
    (* current basis columns by position; updated as updates are applied *)
    let cur = Array.init m (fun i -> cols.(i)) in
    let basis = Array.init m Fun.id in
    let col j f = List.iter (fun (i, v) -> f i v) cur.(j) in
    for pass = 1 to 8 do
      let tag = Printf.sprintf "seed %d pass %d" seed pass in
      (* FTRAN and BTRAN: traversal vs every step, bit for bit, and small
         residuals against the current basis columns *)
      let rows, coefs = random_rhs rng m in
      let _, x, b = pin_ftran tag t rows coefs ~off:0 ~len:(Array.length rows) in
      check_residual tag "ftran" (Oracles.ftran_residual ~basis ~col x b);
      let r = R.int rng m in
      let y, c = pin_btran tag t r in
      check_residual tag "btran" (Oracles.btran_residual ~basis ~col y c);
      (* a sparse result held across the dense solves keeps its pattern
         and values *)
      let xs = Basis.ftran_col_sparse t rows coefs ~off:0 ~len:(Array.length rows) in
      let ys = Basis.btran_unit_sparse t r in
      let held = (svec_bits xs, svec_bits ys) in
      ignore (Oracles.ftran_dense t b);
      Basis.btran_dense_into t c (Array.make m 0.0);
      if (svec_bits xs, svec_bits ys) <> held then
        Alcotest.failf "%s: a dense solve changed a held sparse result" tag;
      (* update and keep testing against the updated basis: enter a fresh
         random column at the position of its largest alpha *)
      let erows, ecoefs = random_rhs rng m in
      let alpha = Basis.ftran_col_sparse t erows ecoefs ~off:0 ~len:(Array.length erows) in
      let row = largest_entry alpha in
      if row >= 0 && Float.abs alpha.Basis.Svec.vals.(row) > 0.1 then
        if Basis.update_sparse t ~alpha ~row then
          cur.(row) <- List.init (Array.length erows) (fun k -> (erows.(k), ecoefs.(k)))
    done;
    (* refactorized from the updated columns, the solves still check out *)
    Basis.refactorize t ~basis ~col;
    let rows, coefs = random_rhs rng m in
    let _, x, b =
      pin_ftran (Printf.sprintf "seed %d refactorized" seed) t rows coefs ~off:0
        ~len:(Array.length rows)
    in
    check_residual (Printf.sprintf "seed %d refactorized" seed) "ftran"
      (Oracles.ftran_residual ~basis ~col x b)
  done

let test_dense_column_fallback () =
  (* one column touching every row: the traversal's reach is the entire
     factor pattern, forcing the full-scan fallback — which must stay
     bit-identical to the dense solve and still solve correctly *)
  for seed = 1 to 10 do
    let rng = R.create (12_000 + seed) in
    let m = 20 + R.int rng 21 in
    let cols = random_sparse_matrix rng m in
    cols.(0) <-
      List.init m (fun i -> (i, if i = 0 then 3.0 +. R.float rng 2.0 else R.float rng 1.0 -. 0.5));
    let t = factorized m cols in
    let rows = Array.init m (fun i -> i) in
    let coefs = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
    let tag = Printf.sprintf "dense-col seed %d" seed in
    let _, x, b = pin_ftran tag t rows coefs ~off:0 ~len:m in
    let basis = Array.init m Fun.id and col j f = List.iter (fun (i, v) -> f i v) cols.(j) in
    check_residual tag "ftran" (Oracles.ftran_residual ~basis ~col x b);
    let y, c = pin_btran tag t 0 in
    check_residual tag "btran" (Oracles.btran_residual ~basis ~col y c)
  done

(* Result patterns long enough for the radix sort, at sizes whose
   positions take one, two and three 7-bit digit passes (m = 100, 1,000,
   20,000), and random short ones below its cut-off: every FTRAN and
   BTRAN pattern is ascending and the solve equals the dense one.  The
   basis is lower bidiagonal, so it factors without fill, the all-rows
   FTRAN fills every position and row r of its inverse holds r + 1. *)
let test_radix_sorted_patterns () =
  List.iteri
    (fun k m ->
      let rng = R.create (13_000 + k) in
      let cols =
        Array.init m (fun j ->
            (j, 2.0 +. R.float rng 3.0) :: (if j + 1 < m then [ (j + 1, R.float rng 1.0 -. 0.5) ] else []))
      in
      let t = factorized m cols in
      let tag = Printf.sprintf "radix m=%d" m in
      let coefs = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
      ignore (pin_ftran tag t (Array.init m Fun.id) coefs ~off:0 ~len:m);
      ignore (pin_btran tag t (m - 1));
      for _ = 1 to 4 do
        let rows, coefs = random_rhs rng m in
        ignore (pin_ftran tag t rows coefs ~off:0 ~len:(Array.length rows));
        ignore (pin_btran tag t (R.int rng m))
      done)
    [ 100; 1_000; 20_000 ]

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
    (match Simplex.solve ~basis ~ub std with
    | Simplex.Optimal { obj; dual_iterations; _ } ->
      Alcotest.(check (float 1e-6)) "warm objective" (-9.725) obj;
      Alcotest.(check int) "dual pivots" 3 dual_iterations
    | _ -> Alcotest.fail "warm restart: expected optimal")
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
    Alcotest.test_case "random sparse systems: traversal == all-steps solves, residuals" `Quick
      test_random_sparse_triangular;
    Alcotest.test_case "fully dense column falls back without diverging" `Quick
      test_dense_column_fallback;
    Alcotest.test_case "bound-flip dual ratio test (bound_flip.lp warm restart)" `Quick
      test_dual_ratio_restart;
    Alcotest.test_case "workspace reuse bounds per-solve allocation" `Quick
      test_workspace_alloc_bound;
    Alcotest.test_case "radix-sorted result patterns at one, two and three digit passes" `Quick
      test_radix_sorted_patterns;
  ]
