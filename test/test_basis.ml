(* Numerical-stability tests for the factorized basis (Ras_mip.Basis):
   FTRAN/BTRAN round trips through the LU factors and the eta file,
   refactorization policy triggers, rejection of near-singular pivots, and
   Dense-vs-Lu backend agreement on random matrices.

   The LU identity battery pins the Markowitz elimination order against
   the window-scan oracle ([Oracles.lu_pivot_order_reference]) on random,
   rank-deficient and differential-corpus root bases, plus the
   refactorization's scaling and allocation.  RAS_SCALE_TESTS=full adds the
   root bases of the 10^6-server preset's phase-1 model at bring-up and
   after a failure round (the region-scale CI job sets it). *)

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

let refactorized kind rng m =
  let cols = random_matrix rng m in
  let basis = Array.init m (fun i -> i) in
  R.shuffle rng basis;
  let t = Basis.create kind ~m in
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
  let s = Basis.Svec.make (Array.length a) in
  Array.iteri
    (fun i v ->
      if v <> 0.0 then begin
        s.Basis.Svec.vals.(i) <- v;
        s.Basis.Svec.idx.(s.Basis.Svec.n) <- i;
        s.Basis.Svec.n <- s.Basis.Svec.n + 1
      end)
    a;
  s

(* [k]·B^-1 e_r: the FTRAN of k times the unit column e_r, scaled in place *)
let scaled_unit_ftran t r k =
  let alpha = Basis.ftran_unit_sparse t r in
  for u = 0 to alpha.Basis.Svec.n - 1 do
    let i = alpha.Basis.Svec.idx.(u) in
    alpha.Basis.Svec.vals.(i) <- k *. alpha.Basis.Svec.vals.(i)
  done;
  alpha

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) a;
  !worst

let test_ftran_round_trip () =
  let rng = R.create 11 in
  List.iter
    (fun m ->
      let t, cols, basis = refactorized Basis.Lu rng m in
      let b = Array.init m (fun _ -> R.float rng 10.0 -. 5.0) in
      let x = Basis.ftran_dense t (Array.copy b) in
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
      let t, cols, basis = refactorized Basis.Lu rng m in
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
     including through a nonempty eta file *)
  let rng = R.create 13 in
  let m = 15 in
  let t, _, _ = refactorized Basis.Lu rng m in
  (* push a few eta updates through *)
  for k = 0 to 4 do
    let col = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
    let alpha = Basis.ftran_col_sparse t (Array.init m Fun.id) col ~off:0 ~len:m in
    let row = k mod m in
    if Float.abs alpha.Basis.Svec.vals.(row) > 1e-6 then
      ignore (Basis.update_sparse t ~alpha ~row)
  done;
  let b = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
  let c = Array.init m (fun _ -> R.float rng 4.0 -. 2.0) in
  let x = Basis.ftran_dense t (Array.copy b) in
  let y = btran t c in
  let lhs = ref 0.0 and rhs = ref 0.0 in
  for i = 0 to m - 1 do
    lhs := !lhs +. (c.(i) *. x.(i));
    rhs := !rhs +. (y.(i) *. b.(i))
  done;
  Alcotest.(check (float 1e-7)) "adjoint identity" !lhs !rhs

let test_eta_limit_triggers_refactorize () =
  let m = 6 in
  let t = Basis.create Basis.Lu ~m in
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
    (Printf.sprintf "eta budget fires (after %d updates)" !fired)
    true
    (!fired > 0 && !fired <= 64);
  Alcotest.(check int) "update counter matches" !fired (Basis.updates_since_refactor t);
  Alcotest.(check bool) "eta file is nonempty" true (Basis.eta_nnz t > 0)

let test_near_singular_pivot_refused () =
  let rng = R.create 14 in
  let m = 10 in
  let t, _, _ = refactorized Basis.Lu rng m in
  let before_updates = Basis.updates_since_refactor t in
  let probe = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
  let x_before = Basis.ftran_dense t (Array.copy probe) in
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
  (* the refused updates left the factorization untouched *)
  Alcotest.(check int) "no update recorded" before_updates (Basis.updates_since_refactor t);
  let x_after = Basis.ftran_dense t (Array.copy probe) in
  Alcotest.(check bool) "solves unchanged" true (max_abs_diff x_before x_after = 0.0)

let test_singular_matrix_raises () =
  let m = 4 in
  let cols = Array.make m [ (0, 1.0); (1, 1.0) ] in
  (* every column identical: rank 1 *)
  let basis = Array.init m (fun i -> i) in
  let t = Basis.create Basis.Lu ~m in
  (match Basis.refactorize t ~basis ~col:(col_fn cols) with
  | () -> Alcotest.fail "singular matrix must raise"
  | exception Basis.Singular -> ());
  (* the failed refactorization left the identity factors usable *)
  let x = Basis.ftran_dense t [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check bool) "state survives" true (max_abs_diff x [| 1.0; 2.0; 3.0; 4.0 |] < 1e-12)

let test_dense_lu_agree () =
  let rng = R.create 15 in
  for _ = 1 to 20 do
    let m = 1 + R.int rng 25 in
    let cols = random_matrix rng m in
    let basis = Array.init m (fun i -> i) in
    R.shuffle rng basis;
    let lu = Basis.create Basis.Lu ~m in
    let dn = Basis.create Basis.Dense ~m in
    Basis.refactorize lu ~basis ~col:(col_fn cols);
    Basis.refactorize dn ~basis ~col:(col_fn cols);
    let b = Array.init m (fun _ -> R.float rng 10.0 -. 5.0) in
    let xl = Basis.ftran_dense lu (Array.copy b) in
    let xd = Basis.ftran_dense dn (Array.copy b) in
    Alcotest.(check bool)
      (Printf.sprintf "ftran agrees at m=%d (err %g)" m (max_abs_diff xl xd))
      true
      (max_abs_diff xl xd < 1e-8);
    let yl = btran lu b in
    let yd = btran dn b in
    Alcotest.(check bool)
      (Printf.sprintf "btran agrees at m=%d (err %g)" m (max_abs_diff yl yd))
      true
      (max_abs_diff yl yd < 1e-8)
  done

let test_copy_is_independent () =
  let rng = R.create 16 in
  let m = 8 in
  let t, _, _ = refactorized Basis.Lu rng m in
  let probe = Array.init m (fun _ -> R.float rng 2.0 -. 1.0) in
  let x_before = Basis.ftran_dense t (Array.copy probe) in
  let snap = Basis.copy t in
  (* mutate the copy with an eta update *)
  let alpha = scaled_unit_ftran snap 2 3.0 in
  Alcotest.(check bool) "update on copy ok" true (Basis.update_sparse snap ~alpha ~row:2);
  (* the original is untouched *)
  Alcotest.(check int) "original update count" 0 (Basis.updates_since_refactor t);
  let x_after = Basis.ftran_dense t (Array.copy probe) in
  Alcotest.(check bool) "original solves unchanged" true (max_abs_diff x_before x_after = 0.0)

(* ---------- LU pivot order against the window-scan oracle ---------- *)

(* The factorization reads its Markowitz candidate window off a count heap;
   [Oracles.lu_pivot_order_reference] is the original all-columns scan.  The
   same window means the same pivot sequence, so the elimination order (and
   in repair mode the unit-column substitutions) must match exactly. *)

let production_order ?(repair = false) m ~basis ~col =
  let t = Basis.create Basis.Lu ~m in
  let repairs =
    if repair then Basis.refactorize_repaired t ~basis ~col
    else begin
      Basis.refactorize t ~basis ~col;
      []
    end
  in
  let rperm, cperm = Basis.pivot_order t in
  (Array.init m (fun k -> (rperm.(k), cperm.(k))), repairs)

(* Both paths on one input: equal orders and repairs, or both singular. *)
let check_pivot_order ?repair tag m ~basis ~col =
  let run f = match f () with v -> Ok v | exception Basis.Singular -> Error () in
  let produced = run (fun () -> production_order ?repair m ~basis ~col) in
  let expected = run (fun () -> Oracles.lu_pivot_order_reference ?repair m ~basis ~col) in
  match (produced, expected) with
  | Ok (order, repairs), Ok (order_ref, repairs_ref) ->
    Array.iteri
      (fun k (r, c) ->
        let r', c' = order_ref.(k) in
        if r <> r' || c <> c' then
          Alcotest.failf "%s: step %d pivots (row %d, pos %d), oracle (row %d, pos %d)" tag k r
            c r' c')
      order;
    if repairs <> repairs_ref then Alcotest.failf "%s: repair substitutions differ" tag
  | Error (), Error () -> ()
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
    check_pivot_order (Printf.sprintf "random trial %d (m=%d)" trial m) m ~basis
      ~col:(col_fn cols)
  done

(* Rank-deficient bases: duplicated, zero and linearly combined columns, so
   the repair path drops columns mid-elimination and fills the leftover
   rows with unit columns. *)
let test_pivot_order_rank_deficient () =
  let rng = R.create 22 in
  let repaired = ref 0 in
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
    let tag = Printf.sprintf "deficient trial %d (m=%d)" trial m in
    check_pivot_order ~repair:true tag m ~basis ~col:(col_fn cols);
    check_pivot_order tag m ~basis ~col:(col_fn cols);
    match production_order ~repair:true m ~basis ~col:(col_fn cols) with
    | _, _ :: _ -> incr repaired
    | _, [] | (exception Basis.Singular) -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "repairs exercised (%d)" !repaired)
    true (!repaired >= 60)

(* FTRAN/BTRAN of a basis through a fresh factorization and through the
   solve's own factorization [t] (which pivoted its way to the basis and
   carries an eta file), forced to refactorize, must be bitwise equal under
   both LU kinds: nothing of the factorization's history survives a
   refactorization. *)
let check_solves_bitwise tag rng (t : Basis.t) m ~basis ~col =
  Basis.refactorize t ~basis ~col;
  List.iter
    (fun kind ->
      let fresh = Basis.create kind ~m in
      Basis.refactorize fresh ~basis ~col;
      let t = Option.get (Basis.adopt t kind) in
      List.iter
        (fun b ->
          let same f = f fresh (Array.copy b) = f t (Array.copy b) in
          if not (same Basis.ftran_dense && same btran) then
            Alcotest.failf "%s: solves differ after a forced refactorization" tag)
        (List.init 3 (fun _ -> Array.init m (fun _ -> R.float rng 2.0 -. 1.0))))
    [ Basis.Lu; Basis.Lu_full_scan ]

(* The differential corpus (140 LP + 60 warm-restart LP + 80 MIP
   relaxations): every optimal root basis, plus — since most of the random
   LPs are infeasible or unbounded — one random pick of m of each
   instance's structural and slack columns, factorized in repair mode. *)
let test_pivot_order_corpus () =
  let module D = Test_differential in
  let rng = R.create 23 in
  let checked = ref 0 in
  let check tag std =
    let m = std.Model.nrows and ntotal = std.Model.nvars + std.Model.nrows in
    let pick = Array.init ntotal Fun.id in
    R.shuffle rng pick;
    check_pivot_order ~repair:true (tag ^ " random pick") m ~basis:(Array.sub pick 0 m)
      ~col:(Simplex.iter_column std);
    match Simplex.solve std with
    | Simplex.Optimal { basis = { Simplex.wcols; wfac = Some fac; _ }; _ } ->
      incr checked;
      let m = std.Model.nrows and col = Simplex.iter_column std in
      check_pivot_order tag m ~basis:wcols ~col;
      check_solves_bitwise tag rng fac m ~basis:wcols ~col
    | _ -> ()
  in
  for seed = 1 to 140 do
    let rng = R.create (7000 + seed) in
    check (Printf.sprintf "lp seed %d" seed)
      (D.random_model rng ~max_rows:60 ~max_cols:120 ~integer_frac:0.0)
  done;
  for seed = 1 to 60 do
    let rng = R.create (9000 + seed) in
    check (Printf.sprintf "warm seed %d" seed) (D.random_feasible_model rng ~max_rows:30 ~max_cols:60)
  done;
  for seed = 1 to 80 do
    let rng = R.create (8000 + seed) in
    check (Printf.sprintf "mip seed %d" seed)
      (D.random_model rng ~max_rows:8 ~max_cols:8 ~integer_frac:0.7)
  done;
  Alcotest.(check bool) (Printf.sprintf "optimal bases checked (%d)" !checked) true (!checked >= 75)

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

(* best of 3 wall time, and the minor words of the last run *)
let measure_refactorize ~stride m =
  let basis, col, nnz = banded_basis ~stride m in
  let t = Basis.create Basis.Lu ~m in
  let best = ref infinity and words = ref 0.0 in
  for _ = 1 to 3 do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Basis.refactorize t ~basis ~col;
    let dt = Unix.gettimeofday () -. t0 in
    words := Gc.minor_words () -. w0;
    best := Float.min !best dt
  done;
  (!best, !words, nnz)

(* The candidate window comes off a count heap: O(log m) per count change
   instead of an O(m) scan per elimination step.  8x the size costs ~7-10x
   the time here (O(m log m) predicts ~9x); the scan cost ~50-65x. *)
let test_refactorize_scaling () =
  let small, _, _ = measure_refactorize ~stride:4 2_000 in
  let large, _, _ = measure_refactorize ~stride:4 16_000 in
  let ratio = large /. small in
  Alcotest.(check bool)
    (Printf.sprintf "m=16000 / m=2000 refactorization time %.1fx (%.2f / %.2f ms) < 24x" ratio
       (large *. 1e3) (small *. 1e3))
    true (ratio < 24.0)

(* Minor-heap words per refactorization stay a fixed multiple of m + nnz:
   the working rows and columns, the boxed coefficient and a closure per
   basis column, and the factor slices — nothing per elimination step.
   Measured: 24.0 words per (m + nnz) all-slack and 20.7 banded; the scan,
   with its per-step window array and a closure per row search, took 38.5
   and 32.3.  A per-step array of 4 ints alone would add 2.5 to the
   all-slack figure. *)
let test_refactorize_allocation () =
  List.iter
    (fun (stride, m) ->
      let _, words, nnz = measure_refactorize ~stride m in
      let per = words /. float_of_int (m + nnz) in
      Alcotest.(check bool)
        (Printf.sprintf "stride %d, m=%d: %.0f minor words = %.1f per (m + nnz) <= 25" stride m
           words per)
        true (per <= 25.0))
    [ (0, 2_000); (4, 2_000); (4, 16_000) ]

(* ---------- region scale (RAS_SCALE_TESTS=full) ---------- *)

let full_scale () = Sys.getenv_opt "RAS_SCALE_TESTS" = Some "full"

(* The phase-1 model a region-scale round compiles, at bring-up and after a
   failure round: its optimal root basis must factor in the oracle's order,
   with solves unchanged by a forced refactorization. *)
let test_pivot_order_region_scale () =
  if not (full_scale ()) then () (* 10^6-server pin: RAS_SCALE_TESTS=full only *)
  else begin
    let module Generator = Ras_topology.Generator in
    let module Broker = Ras_broker.Broker in
    let module Service = Ras_workload.Service in
    let region = Generator.generate Generator.region_scale_params in
    let broker = Broker.create region in
    let config =
      {
        Ras.System.default_config with
        Ras.System.solver = { Ras.Async_solver.default_params with Ras.Async_solver.node_limit = 0 };
        job_fill_fraction = 0.0;
      }
    in
    let sys = Ras.System.create ~config broker in
    let services =
      List.filter
        (fun s -> s.Service.id <= 12 || s.Service.id = 13 || s.Service.id = 17)
        Service.default_catalog
    in
    List.iter (Ras.System.add_request sys)
      (Ras_workload.Request_gen.scenario (R.create 11) ~region ~services
         ~target_utilization:0.45);
    let rng = R.create 24 in
    let check_round tag =
      let stats = Ras.System.solve_now sys in
      let std = stats.Ras.Async_solver.phase1.Ras.Phases.compiled in
      let tag = Printf.sprintf "%s (%d vars x %d rows)" tag std.Model.nvars std.Model.nrows in
      match Simplex.solve std with
      | Simplex.Optimal { basis = { Simplex.wcols; wfac = Some fac; _ }; _ } ->
        let m = std.Model.nrows and col = Simplex.iter_column std in
        check_pivot_order tag m ~basis:wcols ~col;
        check_solves_bitwise tag rng fac m ~basis:wcols ~col;
        Printf.printf "%s: %d elimination steps match the oracle\n" tag m
      | _ -> Alcotest.failf "%s: root LP not optimal" tag
    in
    check_round "bring-up";
    let n = Broker.num_servers broker in
    for _ = 1 to 200 do
      Broker.mark_down broker (R.int rng n) Ras_failures.Unavail.Unplanned_hw
    done;
    check_round "post-failure"
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
    Alcotest.test_case "dense and LU backends agree" `Quick test_dense_lu_agree;
    Alcotest.test_case "copy is independent" `Quick test_copy_is_independent;
    Alcotest.test_case "LU pivot order matches the window-scan oracle (random bases)" `Quick
      test_pivot_order_random;
    Alcotest.test_case "LU pivot order and repairs match the oracle (rank-deficient)" `Quick
      test_pivot_order_rank_deficient;
    Alcotest.test_case "LU pivot order and solves on the differential corpus's root bases"
      `Quick test_pivot_order_corpus;
    Alcotest.test_case "refactorization time scales O(m log m) (banded, m=2k..16k)" `Quick
      test_refactorize_scaling;
    Alcotest.test_case "refactorization allocates O(m + nnz) minor words" `Quick
      test_refactorize_allocation;
    Alcotest.test_case "LU pivot order on 10^6-server phase-1 root bases (full scale only)"
      `Quick test_pivot_order_region_scale;
  ]
