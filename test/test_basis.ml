(* Numerical-stability tests for the factorized basis (Ras_mip.Basis):
   FTRAN/BTRAN round trips through the LU factors and the Forrest–Tomlin
   update overlay, refactorization policy triggers, rejection of
   near-singular pivots and of updates whose spike does not match their
   pivot, copies that update independently, and residuals against B
   rebuilt from the basis columns after every update of a full update
   chain and every refactorization on random matrices.

   The LU identity battery pins the elimination order — column singletons,
   then Markowitz on the nucleus left over — against the rescan oracle
   ([Oracles.lu_pivot_order_reference]) on random, triangular-plus-nucleus,
   crash and differential-corpus root bases, and pins that both raise
   Singular on bases with dependent columns, plus the refactorization's
   scaling and allocation.  The corpus's optimal root bases also get the
   traversal pin ([Test_sparse_kernels.pin_model_basis]).
   RAS_SCALE_TESTS=full adds the root and crash bases of the 10^6-server
   preset's phase-1 model at bring-up and after a failure round, the root
   bases with the traversal pin too (scripts/check.sh sets it by
   default). *)

open Ras_mip
module R = Ras_stats.Rng

(* A random diagonally dominant m×m matrix in column-callback form (the shape
   Basis.refactorize consumes): well-conditioned by construction, sparse off
   the diagonal. *)
let random_matrix rng m =
  let cols = Array.make m [] in
  for j = 0 to m - 1 do
    let entries = ref [ (j, 4.0 +. R.float rng 4.0) ] in
    let offdiag = R.int rng 4 in
    for _ = 1 to offdiag do
      let i = R.int rng m in
      if i <> j then entries := (i, R.float rng 2.0 -. 1.0) :: !entries
    done;
    (* deduplicate rows, keeping the first entry *)
    let seen = Hashtbl.create 8 in
    cols.(j) <-
      List.filter
        (fun (i, _) ->
          if Hashtbl.mem seen i then false
          else begin
            Hashtbl.add seen i ();
            true
          end)
        !entries
  done;
  cols

let col_fn cols j f = List.iter (fun (i, v) -> f i v) cols.(j)

(* b_row = sum_i A_{basis.(i)}(row) * x_i, for checking B x = b *)
let apply_matrix cols basis x m =
  let b = Array.make m 0.0 in
  Array.iteri
    (fun pos j -> List.iter (fun (i, v) -> b.(i) <- b.(i) +. (v *. x.(pos))) cols.(j))
    basis;
  b

let refactorized rng m =
  let cols = random_matrix rng m in
  let basis = Array.init m (fun i -> i) in
  R.shuffle rng basis;
  let t = Basis.create ~m in
  Basis.refactorize t ~basis ~col:(col_fn cols);
  (t, cols, basis)

(* B^-T c through the caller-buffer BTRAN *)
let btran t c =
  let y = Array.make (Array.length c) 0.0 in
  Basis.btran_dense_into t c y;
  y

(* A sparse vector holding the nonzeros of the dense [a], as the sparse
   FTRAN would return it. *)
let svec_of_dense a =
  let m = Array.length a in
  let s = { Basis.Svec.n = 0; idx = Array.make m 0; vals = Array.make m 0.0 } in
  Array.iteri
    (fun i v ->
      if v <> 0.0 then begin
        s.Basis.Svec.vals.(i) <- v;
        s.Basis.Svec.idx.(s.Basis.Svec.n) <- i;
        s.Basis.Svec.n <- s.Basis.Svec.n + 1
      end)
    a;
  s

(* B^-1 (k e_r): the FTRAN of the column k times e_r *)
let scaled_unit_ftran t r k = Basis.ftran_col_sparse t [| r |] [| k |] ~off:0 ~len:1

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) a;
  !worst

let test_ftran_round_trip () =
  let rng = R.create 11 in
  List.iter
    (fun m ->
      let t, cols, basis = refactorized rng m in
      let b = Array.init m (fun _ -> R.float rng 10.0 -. 5.0) in
      let x = Oracles.ftran_dense t (Array.copy b) in
      let back = apply_matrix cols basis x m in
      Alcotest.(check bool)
        (Printf.sprintf "B (B^-1 b) = b at m=%d (err %g)" m (max_abs_diff back b))
        true
        (max_abs_diff back b < 1e-8))
    [ 1; 2; 7; 20; 40 ]

let test_btran_round_trip () =
  let rng = R.create 12 in
  List.iter
    (fun m ->
      let t, cols, basis = refactorized rng m in
      let c = Array.init m (fun _ -> R.float rng 10.0 -. 5.0) in
      let y = btran t c in
      (* y^T B = c^T: component i is y . A_{basis.(i)} *)
      let back =
        Array.map (fun j -> List.fold_left (fun acc (i, v) -> acc +. (y.(i) *. v)) 0.0 cols.(j)) basis
      in
      Alcotest.(check bool)
        (Printf.sprintf "(B^-T c)^T B = c at m=%d (err %g)" m (max_abs_diff back c))
        true
        (max_abs_diff back c < 1e-8))
    [ 1; 2; 7; 20; 40 ]

let test_ftran_btran_adjoint () =
  (* <c, B^-1 b> = <B^-T c, b> — exercises both solves against each other,
     including through a nonempty update chain *)
  let rng = R.create 13 in
  let m = 15 in
  let t, _, _ = refactorized rng m in
  (* push a few updates through *)
  for k = 0 to 4 do
    let col = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
    let alpha = Basis.ftran_col_sparse t (Array.init m Fun.id) col ~off:0 ~len:m in
    let row = k mod m in
    if Float.abs alpha.Basis.Svec.vals.(row) > 1e-6 then
      ignore (Basis.update_sparse t ~alpha ~row)
  done;
  let b = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
  let c = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
  let x = Oracles.ftran_dense t (Array.copy b) in
  let y = btran t c in
  let lhs = ref 0.0 and rhs = ref 0.0 in
  for i = 0 to m - 1 do
    lhs := !lhs +. (c.(i) *. x.(i));
    rhs := !rhs +. (y.(i) *. b.(i))
  done;
  Alcotest.(check (float 1e-7)) "adjoint identity" !lhs !rhs

let test_eta_limit_triggers_refactorize () =
  let m = 6 in
  let t = Basis.create ~m in
  Alcotest.(check bool) "fresh identity needs no refactor" false (Basis.should_refactorize t);
  let fired = ref (-1) in
  let k = ref 0 in
  while !fired < 0 && !k < 1000 do
    (* replace the basic column in row (k mod m) with 2*e_row: alpha = 2 e_row
       against the current factors scaled on that row, always an acceptable
       pivot *)
    let row = !k mod m in
    let alpha = scaled_unit_ftran t row 2.0 in
    Alcotest.(check bool) "update accepted" true (Basis.update_sparse t ~alpha ~row);
    incr k;
    if Basis.should_refactorize t then fired := !k
  done;
  Alcotest.(check bool)
    (Printf.sprintf "update budget fires (after %d updates)" !fired)
    true
    (!fired > 0 && !fired <= 128);
  (* past the budget the update is refused, leaving the chain as it is *)
  let alpha = scaled_unit_ftran t 0 2.0 in
  Alcotest.(check bool) "update past the budget refused" false (Basis.update_sparse t ~alpha ~row:0);
  Alcotest.(check int) "update counter matches" !fired (Basis.updates_since_refactor t)

let test_near_singular_pivot_refused () =
  let rng = R.create 14 in
  let m = 10 in
  let t, cols, basis = refactorized rng m in
  let before_updates = Basis.updates_since_refactor t in
  let probe = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
  let x_before = Oracles.ftran_dense t (Array.copy probe) in
  (* absolute test: pivot element ~1e-12 *)
  let alpha = Array.make m 0.1 in
  alpha.(3) <- 1e-12;
  Alcotest.(check bool) "tiny pivot refused" false
    (Basis.update_sparse t ~alpha:(svec_of_dense alpha) ~row:3);
  (* relative test: pivot 1.0 dwarfed by a 1e9 entry elsewhere *)
  let alpha = Array.make m 0.0 in
  alpha.(3) <- 1.0;
  alpha.(7) <- 1e9;
  Alcotest.(check bool) "relatively tiny pivot refused" false
    (Basis.update_sparse t ~alpha:(svec_of_dense alpha) ~row:3);
  (* diagonal guard: the FTRAN of e_3 scaled by 3 after the solve, so the
     new U diagonal its spike gives is a third of alpha_3 times the old *)
  let alpha = scaled_unit_ftran t 3 1.0 in
  for u = 0 to alpha.Basis.Svec.n - 1 do
    let i = alpha.Basis.Svec.idx.(u) in
    alpha.Basis.Svec.vals.(i) <- 3.0 *. alpha.Basis.Svec.vals.(i)
  done;
  Alcotest.(check bool) "pivot its spike disagrees with refused" false
    (Basis.update_sparse t ~alpha ~row:3);
  (* a sound alpha that is not the factorization's last FTRAN has no spike *)
  let alpha = scaled_unit_ftran t 3 1.0 in
  let dense = Array.make m 0.0 in
  for u = 0 to alpha.Basis.Svec.n - 1 do
    let i = alpha.Basis.Svec.idx.(u) in
    dense.(i) <- alpha.Basis.Svec.vals.(i)
  done;
  Alcotest.(check bool) "alpha from elsewhere refused" false
    (Basis.update_sparse t ~alpha:(svec_of_dense dense) ~row:3);
  (* the refused updates left the factorization untouched *)
  Alcotest.(check int) "no update recorded" before_updates (Basis.updates_since_refactor t);
  let x_after = Oracles.ftran_dense t (Array.copy probe) in
  Alcotest.(check bool) "solves unchanged" true (max_abs_diff x_before x_after = 0.0);
  (* an FTRAN from before a refactorization, or before another update, is
     stale: its spike no longer matches the factors *)
  let alpha = scaled_unit_ftran t 3 2.0 in
  Basis.refactorize t ~basis ~col:(col_fn cols);
  Alcotest.(check bool) "FTRAN older than the refactorization refused" false
    (Basis.update_sparse t ~alpha ~row:3);
  let alpha = scaled_unit_ftran t 3 2.0 in
  let row = Test_sparse_kernels.largest_entry alpha in
  Alcotest.(check bool) "fresh FTRAN accepted" true (Basis.update_sparse t ~alpha ~row);
  Alcotest.(check bool) "FTRAN already used by an update refused" false
    (Basis.update_sparse t ~alpha ~row)

let test_singular_matrix_raises () =
  let m = 4 in
  let cols = Array.make m [ (0, 1.0); (1, 1.0) ] in
  (* every column identical: rank 1 *)
  let basis = Array.init m (fun i -> i) in
  let t = Basis.create ~m in
  (match Basis.refactorize t ~basis ~col:(col_fn cols) with
  | () -> Alcotest.fail "singular matrix must raise"
  | exception Basis.Singular -> ());
  (* the failed refactorization left the identity factors usable *)
  let x = Oracles.ftran_dense t [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check bool) "state survives" true (max_abs_diff x [| 1.0; 2.0; 3.0; 4.0 |] < 1e-12)

(* A basis under updates, for the residual oracles: [cur.(p)] is the
   column in basis position p. *)
type tracked = { t : Basis.t; cur : (int * float) list array }

let tracked_col tb p f = List.iter (fun (i, v) -> f i v) tb.cur.(p)

(* The random sparse column [rows]/[coefs] enters [tb] at the position of
   its largest |alpha|; returns whether the update was accepted. *)
let enter tb (rows, coefs) =
  let alpha = Basis.ftran_col_sparse tb.t rows coefs ~off:0 ~len:(Array.length rows) in
  let row = Test_sparse_kernels.largest_entry alpha in
  row >= 0
  && Basis.update_sparse tb.t ~alpha ~row
  && begin
       tb.cur.(row) <- List.init (Array.length rows) (fun k -> (rows.(k), coefs.(k)));
       true
     end

(* The traversal pin and residuals against B rebuilt from [tb]'s basis
   columns ([Oracles.ftran_residual], [Oracles.btran_residual], which read
   nothing of the factorization) on a random right-hand side and basis
   position. *)
let check_tracked tag rng tb =
  let m = Basis.dim tb.t in
  let basis = Array.init m Fun.id and col = tracked_col tb in
  let rows, coefs = Test_sparse_kernels.random_rhs rng m in
  let _, x, b = Test_sparse_kernels.pin_ftran tag tb.t rows coefs ~off:0 ~len:(Array.length rows) in
  let y, c = Test_sparse_kernels.pin_btran tag tb.t (R.int rng m) in
  let fe = Oracles.ftran_residual ~basis ~col x b in
  let be = Oracles.btran_residual ~basis ~col y c in
  if fe > 1e-12 || be > 1e-12 then
    Alcotest.failf "%s: ftran backward error %.3g, btran %.3g" tag fe be

(* After the refactorization, after every update of a full update chain —
   random sparse columns entering at the position of their largest |alpha|
   until the update budget is spent — and after refactorizing the updated
   basis. *)
let test_residuals () =
  let rng = R.create 15 in
  for trial = 1 to 12 do
    let m = 5 + R.int rng 36 in
    let cols = random_matrix rng m in
    let basis = Array.init m (fun i -> i) in
    R.shuffle rng basis;
    let tb = { t = Basis.create ~m; cur = Array.map (fun j -> cols.(j)) basis } in
    Basis.refactorize tb.t ~basis ~col:(col_fn cols);
    let tag = Printf.sprintf "trial %d (m=%d)" trial m in
    check_tracked (tag ^ " refactorized") rng tb;
    let tries = ref 0 in
    while (not (Basis.should_refactorize tb.t)) && !tries < 2000 do
      incr tries;
      if enter tb (Test_sparse_kernels.random_rhs rng m) then
        check_tracked
          (Printf.sprintf "%s after update %d" tag (Basis.updates_since_refactor tb.t))
          rng tb
    done;
    if not (Basis.should_refactorize tb.t) then
      Alcotest.failf "%s: the chain stopped after %d updates" tag
        (Basis.updates_since_refactor tb.t);
    Basis.refactorize tb.t ~basis:(Array.init m Fun.id) ~col:(tracked_col tb);
    check_tracked (tag ^ " refactorized after the chain") rng tb
  done

(* A copy shares the refactorized factors but not the update overlay:
   updates on the copy leave the original's solves bit for bit as they
   were, updates on the original leave the copy's, and each still solves
   its own basis. *)
let test_copy_is_independent () =
  let rng = R.create 16 in
  let m = 12 in
  let cols = random_matrix rng m in
  let basis = Array.init m Fun.id in
  R.shuffle rng basis;
  let orig = { t = Basis.create ~m; cur = Array.map (fun j -> cols.(j)) basis } in
  Basis.refactorize orig.t ~basis ~col:(col_fn cols);
  let updates tb k =
    for _ = 1 to k do
      Alcotest.(check bool) "update accepted" true
        (enter tb (Test_sparse_kernels.random_rhs rng m))
    done
  in
  updates orig 3;
  let snap = { t = Basis.copy orig.t; cur = Array.copy orig.cur } in
  let probes = List.init 3 (fun _ -> Array.init m (fun _ -> R.float rng 2.0 -. 1.0)) in
  let solves tb = List.map (fun b -> (Oracles.ftran_dense tb.t (Array.copy b), btran tb.t b)) probes in
  let orig_before = solves orig in
  updates snap 4;
  Alcotest.(check int) "original update count" 3 (Basis.updates_since_refactor orig.t);
  Alcotest.(check bool) "original solves unchanged by the copy's updates" true
    (solves orig = orig_before);
  let snap_before = solves snap in
  updates orig 4;
  Alcotest.(check int) "copy update count" 7 (Basis.updates_since_refactor snap.t);
  Alcotest.(check bool) "copy solves unchanged by the original's updates" true
    (solves snap = snap_before);
  check_tracked "original" rng orig;
  check_tracked "copy" rng snap

(* ---------- LU pivot order against the rescan oracle ---------- *)

(* The factorization pivots column singletons off a stack, then reads its
   Markowitz candidate window off a count heap;
   [Oracles.lu_pivot_order_reference] finds both by rescanning all
   columns.  The same singletons and the same windows mean the same pivot
   sequence, so the elimination order must match exactly. *)

let production_order m ~basis ~col =
  let t = Basis.create ~m in
  Basis.refactorize t ~basis ~col;
  let rperm, cperm = Basis.pivot_order t in
  Array.init m (fun k -> (rperm.(k), cperm.(k)))

(* Both paths on one input: equal orders, or both singular.  Returns the
   oracle's singleton-pass step count, or [None] when both raised
   Singular. *)
let check_pivot_order tag m ~basis ~col =
  let run f = match f () with v -> Ok v | exception Basis.Singular -> Error () in
  let produced = run (fun () -> production_order m ~basis ~col) in
  let expected = run (fun () -> Oracles.lu_pivot_order_reference m ~basis ~col) in
  match (produced, expected) with
  | Ok order, Ok (order_ref, singletons) ->
    Array.iteri
      (fun k (r, c) ->
        let r', c' = order_ref.(k) in
        if r <> r' || c <> c' then
          Alcotest.failf "%s: step %d pivots (row %d, pos %d), oracle (row %d, pos %d)" tag k r
            c r' c')
      order;
    Some singletons
  | Error (), Error () -> None
  | Ok _, Error () -> Alcotest.failf "%s: oracle raised Singular, production did not" tag
  | Error (), Ok _ -> Alcotest.failf "%s: production raised Singular, oracle did not" tag

(* Sparse random bases with many equal column counts (ties are where a
   window search can silently reorder) and no diagonal dominance, so the
   threshold test and the Markowitz cost both bite. *)
let random_sparse_matrix rng m ~slack_frac =
  Array.init m (fun j ->
      if R.float rng 1.0 < slack_frac then [ (j, 1.0) ]
      else begin
        let seen = Hashtbl.create 8 in
        let entries = ref [] in
        for _ = 0 to R.int rng 4 do
          let i = R.int rng m in
          if not (Hashtbl.mem seen i) then begin
            Hashtbl.add seen i ();
            let v = if R.bool rng then 1.0 else R.float rng 4.0 -. 2.0 in
            entries := (i, v) :: !entries
          end
        done;
        (* keep the diagonal so most draws are nonsingular *)
        if not (Hashtbl.mem seen j) then entries := (j, 0.5 +. R.float rng 1.0) :: !entries;
        !entries
      end)

let test_pivot_order_random () =
  let rng = R.create 21 in
  for trial = 1 to 200 do
    let m = 1 + R.int rng (if trial mod 10 = 0 then 400 else 60) in
    let cols =
      if trial mod 3 = 0 then random_matrix rng m
      else random_sparse_matrix rng m ~slack_frac:(R.float rng 0.8)
    in
    let basis = Array.init m (fun i -> i) in
    R.shuffle rng basis;
    ignore
      (check_pivot_order (Printf.sprintf "random trial %d (m=%d)" trial m) m ~basis
         ~col:(col_fn cols))
  done

(* Singular bases: duplicated, zero and linearly combined columns, so
   elimination meets a dependent column mid-way and both paths must raise
   Singular on the same inputs. *)
let test_pivot_order_singular () =
  let rng = R.create 22 in
  let singular = ref 0 in
  for trial = 1 to 120 do
    let m = 2 + R.int rng 50 in
    let cols = random_sparse_matrix rng m ~slack_frac:0.3 in
    let defects = 1 + R.int rng (Stdlib.max 1 (m / 4)) in
    for _ = 1 to defects do
      let j = R.int rng m and src = R.int rng m in
      cols.(j) <-
        (match R.int rng 3 with
        | 0 -> []
        | 1 -> cols.(src)
        | _ ->
          (* a multiple of another column *)
          List.map (fun (i, v) -> (i, 2.0 *. v)) cols.(src))
    done;
    let basis = Array.init m (fun i -> i) in
    R.shuffle rng basis;
    let tag = Printf.sprintf "dependent trial %d (m=%d)" trial m in
    if check_pivot_order tag m ~basis ~col:(col_fn cols) = None then incr singular
  done;
  Alcotest.(check bool)
    (Printf.sprintf "singular agreements exercised (%d)" !singular)
    true (!singular >= 60)

(* FTRAN/BTRAN of a basis through a fresh factorization and through a copy
   of the solve's own factorization [t] (which pivoted its way to the basis
   and may carry an update chain), forced to refactorize, must be bitwise
   equal: nothing of the factorization's history survives a
   refactorization. *)
let check_solves_bitwise tag rng (t : Basis.t) m ~basis ~col =
  let t = Basis.copy t in
  Basis.refactorize t ~basis ~col;
  let fresh = Basis.create ~m in
  Basis.refactorize fresh ~basis ~col;
  List.iter
    (fun b ->
      let same f = f fresh (Array.copy b) = f t (Array.copy b) in
      if not (same Oracles.ftran_dense && same btran) then
        Alcotest.failf "%s: solves differ after a forced refactorization" tag)
    (List.init 3 (fun _ -> Array.init m (fun _ -> R.float rng 2.0 -. 1.0)))

(* [f tag std] on every model of the differential corpus: 140 LP, 60
   warm-restart LP and 80 MIP relaxations. *)
let iter_corpus f =
  let module D = Test_differential in
  for seed = 1 to 140 do
    let rng = R.create (7000 + seed) in
    f (Printf.sprintf "lp seed %d" seed)
      (D.random_model rng ~max_rows:60 ~max_cols:120 ~integer_frac:0.0)
  done;
  for seed = 1 to 60 do
    let rng = R.create (9000 + seed) in
    f (Printf.sprintf "warm seed %d" seed) (D.random_feasible_model rng ~max_rows:30 ~max_cols:60)
  done;
  for seed = 1 to 80 do
    let rng = R.create (8000 + seed) in
    f (Printf.sprintf "mip seed %d" seed)
      (D.random_model rng ~max_rows:8 ~max_cols:8 ~integer_frac:0.7)
  done

(* The differential corpus: every optimal root basis, plus — since most
   of the random LPs are infeasible or unbounded — one random pick of m of
   each instance's structural and slack columns, which both paths must
   factorize identically or both reject as singular. *)
let test_pivot_order_corpus () =
  let rng = R.create 23 in
  let checked = ref 0 in
  let check tag std =
    let m = std.Model.nrows and ntotal = std.Model.nvars + std.Model.nrows in
    let pick = Array.init ntotal Fun.id in
    R.shuffle rng pick;
    ignore
      (check_pivot_order (tag ^ " random pick") m ~basis:(Array.sub pick 0 m)
         ~col:(Simplex.iter_column std));
    match Simplex.solve std with
    | Simplex.Optimal { basis = { Simplex.wcols; wfac = Some fac; _ }; _ } ->
      incr checked;
      let m = std.Model.nrows and col = Simplex.iter_column std in
      ignore (check_pivot_order tag m ~basis:wcols ~col);
      check_solves_bitwise tag rng fac m ~basis:wcols ~col;
      ignore (Test_sparse_kernels.pin_model_basis tag rng std fac ~wcols ~samples:2 ~updates:6)
    | _ -> ()
  in
  iter_corpus check;
  Alcotest.(check bool) (Printf.sprintf "optimal bases checked (%d)" !checked) true (!checked >= 75)

(* A triangular block around a dense nucleus, rows relabelled and basis
   positions shuffled: [t1] lower-triangular columns on their own rows
   (the column-singleton pass peels them), a nucleus of [n] dense columns
   on [n] rows that also reach into the triangle's rows, and [t2] columns
   that each own a row and reach into a nucleus row, a triangle row and an
   earlier one of their own rows (row singletons for the Markowitz search
   once the nucleus is gone).  Diagonally
   dominant, so every draw is nonsingular and well conditioned. *)
let triangle_nucleus_basis rng ~t1 ~n ~t2 =
  let m = t1 + n + t2 in
  let relabel = Array.init m Fun.id in
  R.shuffle rng relabel;
  let off () = (if R.bool rng then 1.0 else -1.0) *. (0.1 +. R.float rng 0.9) in
  let cols = Array.make m [] in
  let add j i v =
    if not (List.mem_assoc relabel.(i) cols.(j)) then cols.(j) <- (relabel.(i), v) :: cols.(j)
  in
  for j = 0 to t1 - 1 do
    add j j (2.0 +. R.float rng 2.0);
    for _ = 1 to R.int rng 3 do
      if j + 1 < t1 then add j (j + 1 + R.int rng (t1 - j - 1)) (off ())
    done
  done;
  for j = t1 to t1 + n - 1 do
    add j j (float_of_int n +. 2.0);
    for i = t1 to t1 + n - 1 do
      if i <> j then add j i (off ())
    done;
    for _ = 1 to R.int rng 3 do
      if t1 > 0 then add j (R.int rng t1) (off ())
    done
  done;
  for j = t1 + n to m - 1 do
    add j j (2.0 +. R.float rng 2.0);
    if n > 0 then add j (t1 + R.int rng n) (off ());
    if t1 > 0 then add j (R.int rng t1) (off ());
    if j > t1 + n then add j (t1 + n + R.int rng (j - t1 - n)) (off ())
  done;
  let basis = Array.init m Fun.id in
  R.shuffle rng basis;
  (cols, basis)

(* The singleton pass takes exactly the lower triangle when a nucleus of 2
   or more columns stands in the way, and everything without one (a
   one-column nucleus is a singleton too); the factors solve with small
   residuals. *)
let test_pivot_order_triangle_nucleus () =
  let rng = R.create 25 in
  for trial = 1 to 150 do
    let t1 = R.int rng 120 and n = R.int rng 41 and t2 = R.int rng 60 in
    let m = t1 + n + t2 in
    if m > 0 then begin
      let cols, basis = triangle_nucleus_basis rng ~t1 ~n ~t2 in
      let tag = Printf.sprintf "triangle+nucleus trial %d (%d + %d + %d)" trial t1 n t2 in
      (match check_pivot_order tag m ~basis ~col:(col_fn cols) with
      | None -> Alcotest.failf "%s: singular" tag
      | Some singletons ->
        if singletons <> if n <= 1 then m else t1 then
          Alcotest.failf "%s: singleton pass took %d steps" tag singletons);
      let lu = Basis.create ~m and col = col_fn cols in
      Basis.refactorize lu ~basis ~col;
      let b = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
      let df = Oracles.ftran_residual ~basis ~col (Oracles.ftran_dense lu (Array.copy b)) b in
      let db = Oracles.btran_residual ~basis ~col (btran lu b) b in
      if df > 1e-12 || db > 1e-12 then
        Alcotest.failf "%s: ftran backward error %.3g, btran %.3g" tag df db
    end
  done

(* The crash basis of [std] at [x0] factors in the oracle's order, all of
   it in the singleton pass.  Returns the basis. *)
let check_crash_no_nucleus tag std x0 =
  let m = std.Model.nrows in
  let crash = Simplex.crash std x0 in
  (match check_pivot_order tag m ~basis:crash.Simplex.wcols ~col:(Simplex.iter_column std) with
  | Some s when s = m -> ()
  | Some s -> Alcotest.failf "%s: crash basis leaves a nucleus of %d columns" tag (m - s)
  | None -> Alcotest.failf "%s: crash basis singular" tag);
  crash

(* A crash basis is triangular by construction, so the singleton pass
   factors all of it: the oracle's singleton count is m on every model of
   the differential corpus, crashed from a random point in its box and from
   its LP optimum. *)
let test_crash_bases_empty_nucleus () =
  let rng = R.create 26 in
  let crashed = ref 0 in
  let check tag std x0 =
    let crash = check_crash_no_nucleus tag std x0 in
    if Array.exists (fun j -> j < std.Model.nvars) crash.Simplex.wcols then incr crashed
  in
  let in_box std j =
    let lo = std.Model.lb.(j) and hi = std.Model.ub.(j) in
    let lo = if Float.is_finite lo then lo else if Float.is_finite hi then hi -. 10.0 else -5.0 in
    let hi = if Float.is_finite hi then hi else lo +. 10.0 in
    lo +. R.float rng (hi -. lo)
  in
  let both tag std =
    check (tag ^ " crashed from a box point") std (Array.init std.Model.nvars (in_box std));
    match Simplex.solve std with
    | Simplex.Optimal { x; _ } -> check (tag ^ " crashed from its optimum") std x
    | _ -> ()
  in
  iter_corpus both;
  Alcotest.(check bool)
    (Printf.sprintf "crash bases holding structurals (%d)" !crashed)
    true (!crashed >= 100)

(* The singleton pass's two ways to meet a dependent column, each raising
   Singular in both paths as the Markowitz search does: a column emptied
   by singleton pivots (columns 1 and 2 both live on rows 0 and 1 only,
   and row 2 is empty), and a singleton whose entry is below 1e-12 (column
   1 once row 0 is pivoted).  Shuffled positions and relabelled rows move
   the defect through the stack order. *)
let test_singleton_singular () =
  let rng = R.create 27 in
  let cases =
    [
      ("emptied column", [| [ (0, 1.0) ]; [ (0, 1.0); (1, 2.0) ]; [ (0, 1.0); (1, 3.0) ] |]);
      ("tiny singleton", [| [ (0, 1.0) ]; [ (0, 1.0); (1, 1e-13) ]; [ (2, 1.0) ] |]);
    ]
  in
  List.iter
    (fun (name, cols) ->
      for trial = 1 to 12 do
        let m = Array.length cols in
        let relabel = Array.init m Fun.id and basis = Array.init m Fun.id in
        if trial > 1 then begin
          R.shuffle rng relabel;
          R.shuffle rng basis
        end;
        let cols = Array.map (List.map (fun (i, v) -> (relabel.(i), v))) cols in
        let tag = Printf.sprintf "%s, trial %d" name trial in
        if check_pivot_order tag m ~basis ~col:(col_fn cols) <> None then
          Alcotest.failf "%s: factored a singular basis" tag
      done)
    cases

(* ---------- refactorization cost: scaling and allocation pins ---------- *)

(* A slack-heavy banded basis: every [stride]-th position holds a
   structural column on rows j, j+1, j+2 (cyclically), the rest are unit
   slacks — the shape of a region-scale root basis, where most rows keep
   their slack.  [stride = 0] is the all-slack basis.  Columns are flat
   arrays so the callback itself allocates nothing. *)
let banded_basis ~stride m =
  let structural j = stride > 0 && j mod stride = 0 in
  let rows =
    Array.init m (fun j -> if structural j then [| j; (j + 1) mod m; (j + 2) mod m |] else [| j |])
  in
  let vals = Array.init m (fun j -> if structural j then [| 2.0; -1.0; 0.5 |] else [| 1.0 |]) in
  let col j f =
    let r = rows.(j) and v = vals.(j) in
    for k = 0 to Array.length r - 1 do
      f r.(k) v.(k)
    done
  in
  let nnz = Array.fold_left (fun a r -> a + Array.length r) 0 rows in
  (Array.init m Fun.id, col, nnz)

(* Words allocated so far, minor heap and direct major allocations alike:
   the factorization's flat arrays are too large for the minor heap.  Exact
   over a window that starts with an empty minor heap, since a promotion
   inside the window then only moves a word allocated inside it.  The
   minor count comes from [Gc.minor_words]: OCaml 5.1's [Gc.counters]
   leaves out what the minor heap holds since its last collection. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* best of 3 process CPU time, and the words of the last run (the first
   grows the refactorization scratch).  CPU rather than wall time: a 10 ms factorization spans several
   scheduler slices and a 1 ms one fits in one, so on a loaded machine
   wall time inflates only the large run and with it the ratio. *)
let measure_refactorize ~stride m =
  let basis, col, nnz = banded_basis ~stride m in
  let t = Basis.create ~m in
  let best = ref infinity and words = ref 0.0 in
  for _ = 1 to 3 do
    Gc.minor ();
    let w0 = allocated_words () in
    let t0 = Sys.time () in
    Basis.refactorize t ~basis ~col;
    let dt = Sys.time () -. t0 in
    words := allocated_words () -. w0;
    best := Float.min !best dt
  done;
  (!best, !words, nnz)

(* Two inputs.  The stride-4 banded basis is all column singletons,
   factored in O(m + nnz) by the singleton pass.  The stride-1 cyclic band
   (every column structural, 2 / -1 / 0.5 on rows j, j+1, j+2: a
   diagonally dominant circulant) has no singleton at all, so every step
   goes through the count-heap Markowitz search.  8x the size costs
   ~8-9x the time on stride 4 (0.13 -> 1.1 ms on one 2-vCPU container
   core) and ~7-9x on stride 1 (1.3 -> 9.7 ms); O(m log m) predicts ~9x.
   The O(m) candidate scan the heap replaced costs 53x on stride 1. *)
let test_refactorize_scaling () =
  List.iter
    (fun stride ->
      (* sizes alternate, so a clock-speed change between them shifts both *)
      let small = ref infinity and large = ref infinity in
      for _ = 1 to 3 do
        let s, _, _ = measure_refactorize ~stride 2_000 in
        let l, _, _ = measure_refactorize ~stride 16_000 in
        small := Float.min !small s;
        large := Float.min !large l
      done;
      let small = !small and large = !large in
      let ratio = large /. small in
      Alcotest.(check bool)
        (Printf.sprintf
           "stride %d: m=16000 / m=2000 refactorization time %.1fx (%.2f / %.2f ms) < 24x" stride
           ratio (large *. 1e3) (small *. 1e3))
        true (ratio < 24.0))
    [ 4; 1 ]

(* Words allocated per refactorization stay a fixed multiple of m + nnz:
   the factors and their transposes, the nucleus's working rows and
   columns, and nothing per elimination step (B's compressed forms, the
   counts, stack and heap live in the reused scratch).  Measured over both
   heaps: 7.5 words per (m + nnz) all-slack and 7.8 on stride 4, both
   factored by the singleton pass alone; 14.1 (m=2000) and 12.0 (m=16000)
   on stride 1, all nucleus, where fill grows the rows.  A per-step array
   of 4 ints would add 2.5 to the all-slack figure and 1.25 to stride 1's,
   past either bound.  The count-heap search of the whole basis took 38.5,
   32.3 and 25.6 on m=2000's three inputs. *)
let test_refactorize_allocation () =
  List.iter
    (fun (stride, m, bound) ->
      let _, words, nnz = measure_refactorize ~stride m in
      let per = words /. float_of_int (m + nnz) in
      Alcotest.(check bool)
        (Printf.sprintf "stride %d, m=%d: %.0f words = %.1f per (m + nnz) <= %.0f" stride m words
           per bound)
        true (per <= bound))
    [ (0, 2_000, 9.0); (4, 2_000, 9.0); (4, 16_000, 9.0); (1, 2_000, 15.0); (1, 16_000, 15.0) ]

(* ---------- region scale (RAS_SCALE_TESTS=full) ---------- *)

(* The phase-1 model a region-scale round compiles, at bring-up and after a
   failure round: its crash basis at the status quo must factor in the
   oracle's order with an empty nucleus, and its optimal root basis in the
   oracle's order, with solves unchanged by a forced refactorization and
   sparse solves equal to the dense ones (the traversal pin, with
   residuals, also after updates). *)
let test_pivot_order_region_scale () =
  if not (Test_region_scale.full_scale ()) then () (* 10^6-server pin: RAS_SCALE_TESTS=full only *)
  else begin
    let rng = R.create 24 in
    Test_region_scale.bring_up_then_failures ~servers_per_rack:48 (fun tag stats ->
        let std = stats.Ras.Async_solver.phase1.Ras.Phases.compiled in
        let tag = Printf.sprintf "%s (%d vars x %d rows)" tag std.Model.nvars std.Model.nrows in
        let m = std.Model.nrows and col = Simplex.iter_column std in
        let x0 = Ras.Formulation.status_quo stats.Ras.Async_solver.phase1.Ras.Phases.formulation in
        ignore (check_crash_no_nucleus (tag ^ " crash") std x0);
        Printf.printf "%s: crash basis is all %d column singletons\n" tag m;
        match Simplex.solve std with
        | Simplex.Optimal { basis = { Simplex.wcols; wfac = Some fac; _ }; _ } ->
          ignore (check_pivot_order tag m ~basis:wcols ~col);
          check_solves_bitwise tag rng fac m ~basis:wcols ~col;
          Printf.printf "%s: %d elimination steps match the oracle\n" tag m;
          let pinned =
            Test_sparse_kernels.pin_model_basis tag rng std fac ~wcols ~samples:50 ~updates:8
          in
          Printf.printf "%s: %d sparse solves equal the dense ones\n" tag pinned
        | _ -> Alcotest.failf "%s: root LP not optimal" tag)
  end

let suite =
  [
    Alcotest.test_case "ftran round trip" `Quick test_ftran_round_trip;
    Alcotest.test_case "btran round trip" `Quick test_btran_round_trip;
    Alcotest.test_case "ftran/btran adjoint identity" `Quick test_ftran_btran_adjoint;
    Alcotest.test_case "eta budget triggers refactorization" `Quick
      test_eta_limit_triggers_refactorize;
    Alcotest.test_case "near-singular pivot refused" `Quick test_near_singular_pivot_refused;
    Alcotest.test_case "singular matrix raises" `Quick test_singular_matrix_raises;
    Alcotest.test_case "residuals after every update and refactorization" `Quick test_residuals;
    Alcotest.test_case "copy is independent" `Quick test_copy_is_independent;
    Alcotest.test_case "LU pivot order matches the window-scan oracle (random bases)" `Quick
      test_pivot_order_random;
    Alcotest.test_case "LU pivot order and singularity match the oracle (dependent columns)" `Quick
      test_pivot_order_singular;
    Alcotest.test_case "LU pivot order and solves on the differential corpus's root bases"
      `Quick test_pivot_order_corpus;
    Alcotest.test_case "LU pivot order and solves on triangular-plus-nucleus bases" `Quick
      test_pivot_order_triangle_nucleus;
    Alcotest.test_case "LU crash bases of the differential corpus have no nucleus" `Quick
      test_crash_bases_empty_nucleus;
    Alcotest.test_case "LU singleton pass raises Singular (emptied column, tiny entry)" `Quick
      test_singleton_singular;
    Alcotest.test_case "refactorization time scales O(m log m) (banded, m=2k..16k)" `Quick
      test_refactorize_scaling;
    Alcotest.test_case "refactorization allocates O(m + nnz) words" `Quick
      test_refactorize_allocation;
    Alcotest.test_case "LU pivot order on 10^6-server phase-1 root bases (full scale only)"
      `Quick test_pivot_order_region_scale;
  ]
