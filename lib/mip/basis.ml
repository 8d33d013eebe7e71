(* Factorized simplex basis.  Two representations behind one interface:

   - Lu: sparse LU computed with Markowitz pivoting (threshold partial
     pivoting for stability, minimum fill-in cost for sparsity), extended
     between refactorizations by a product-form eta file.  All solves run
     through the triangular factors and the etas, touching factor nonzeros
     only.
   - Lu_full_scan: the same factors, with every triangular pass run over
     all steps instead of a reachability traversal — the oracle that pins
     the traversal code.
   - Dense: the dense Gauss-Jordan basis inverse the solver originally
     maintained, kept verbatim as the differential-testing oracle.

   Index conventions (shared with Simplex): the basis matrix B is m x m with
   rows = constraint rows and column i = constraint column basis.(i) (a
   "basis position").  FTRAN inputs are row-indexed and outputs basis-
   position-indexed; BTRAN is the reverse. *)

(* Each of the four triangular passes (L, U, Uᵀ, Lᵀ) is one loop over an
   ascending list of elimination steps.  [Lu] lists the steps reachable
   from the right-hand side's nonzeros through the factor patterns;
   [Lu_full_scan] lists every step, as do the dense solves.  The entries a
   reach skips are structural zeros, so both kinds perform bit-identical
   floating-point operations on every reachable entry and are
   differentially comparable pivot-for-pivot. *)
type kind = Dense | Lu | Lu_full_scan

(* Sparse vector: a packed, ascending index list over a dense value scratch
   (zero outside the pattern).  The solve results below are returned in
   svecs owned by the factorization; each is valid until the next call of
   the same solve direction on the same [t]. *)
module Svec = struct
  type t = { mutable n : int; idx : int array; vals : float array }

  let make m = { n = 0; idx = Array.make m 0; vals = Array.make m 0.0 }

  (* zero the backing store and forget the pattern *)
  let clear t =
    for u = 0 to t.n - 1 do
      t.vals.(t.idx.(u)) <- 0.0
    done;
    t.n <- 0
end

exception Singular

(* Product-form eta from the pivot alpha = B^-1 a_q entering at basis
   position [er]: E = I - (alpha - e_r) e_r^T / alpha_r, so the new inverse
   is E B^-1.  Stored sparse: off-pivot nonzeros of alpha plus the pivot. *)
type eta = {
  er : int;
  epiv : float;
  erows : int array;  (* basis positions i <> er with alpha_i <> 0 *)
  evals : float array;
}

type lu = {
  rperm : int array;  (* elimination step -> constraint row *)
  rpos : int array;  (* constraint row -> elimination step *)
  cperm : int array;  (* elimination step -> basis position *)
  cpos : int array;  (* basis position -> elimination step *)
  lrows : int array array;  (* L column k: constraint rows below the pivot *)
  lvals : float array array;  (* matching multipliers *)
  ucols : int array array;  (* U row k: later elimination steps *)
  uvals : float array array;
  udiag : float array;
  (* pattern-only views for the hypersparse reachability passes: [lsteps] is
     [lrows] with constraint rows mapped to their elimination steps, and
     [ltr]/[utr] are the transposed patterns of [lsteps]/[ucols] (step j ->
     steps k < j whose L column / U row contains j) *)
  lsteps : int array array;
  ltr : int array array;
  utr : int array array;
  mutable etas : eta array;
  mutable neta : int;
}

type dense = { mutable inv : float array array; nzbuf : int array }

type repr = Dense_r of dense | Lu_r of lu

type t = {
  m : int;
  knd : kind;
  mutable repr : repr;
  mutable updates : int;
  update_limit : int;
  mutable err : float;
  mutable refactors : int;
  (* solve scratch owned by the factorization: the two svec results (FTRAN
     and BTRAN directions are separate so a pivot can hold both at once), a
     step-indexed workspace [wz] kept all-zero between calls, the step list
     [wzi] the triangular passes run over, a traversal worklist, step marks,
     and the one-entry row array of the unit FTRAN's column *)
  sf : Svec.t;
  sb : Svec.t;
  wz : float array;
  wzi : int array;
  wstk : int array;
  wmark : int array;
  mutable wstamp : int;
  unit_row : int array;
  (* per-solve kernel counters (reset by {!reset_stats}) *)
  mutable ftran_calls : int;
  mutable ftran_nnz : int;
  mutable btran_calls : int;
  mutable btran_nnz : int;
}

(* Update-chain budgets: the dense rank-one update is cheap and accurate
   enough to run for a long time (the historical refactor-every-300-pivots
   policy); the eta file also costs one pass per solve, so it is kept
   short. *)
let dense_update_limit = 300
let lu_update_limit = 48

(* Accumulated-error threshold: each accepted pivot contributes an estimate
   proportional to its growth factor; crossing this forces refactorization
   even when the chain is short. *)
let err_limit = 1e-8

(* A pivot below either bound cannot be applied stably: absolute floor, and
   a relative test against the largest entry of the FTRAN'd column. *)
let pivot_abs_min = 1e-9
let pivot_rel_min = 1e-7

let identity_dense m =
  Array.init m (fun i -> Array.init m (fun k -> if i = k then 1.0 else 0.0))

let identity_lu m =
  {
    rperm = Array.init m Fun.id;
    rpos = Array.init m Fun.id;
    cperm = Array.init m Fun.id;
    cpos = Array.init m Fun.id;
    lrows = Array.make m [||];
    lvals = Array.make m [||];
    ucols = Array.make m [||];
    uvals = Array.make m [||];
    udiag = Array.make m 1.0;
    lsteps = Array.make m [||];
    ltr = Array.make m [||];
    utr = Array.make m [||];
    etas = [||];
    neta = 0;
  }

let create knd ~m =
  {
    m;
    knd;
    repr =
      (match knd with
      | Dense -> Dense_r { inv = identity_dense m; nzbuf = Array.make m 0 }
      | Lu | Lu_full_scan -> Lu_r (identity_lu m));
    updates = 0;
    update_limit =
      (match knd with Dense -> dense_update_limit | Lu | Lu_full_scan -> lu_update_limit);
    err = 0.0;
    refactors = 0;
    sf = Svec.make m;
    sb = Svec.make m;
    wz = Array.make m 0.0;
    wzi = Array.make m 0;
    wstk = Array.make m 0;
    wmark = Array.make m (-1);
    wstamp = 0;
    unit_row = [| 0 |];
    ftran_calls = 0;
    ftran_nnz = 0;
    btran_calls = 0;
    btran_nnz = 0;
  }

let kind t = t.knd
let dim t = t.m

type solve_stats = {
  ftran_calls : int;
  ftran_nnz : int;
  btran_calls : int;
  btran_nnz : int;
}

let solve_stats (t : t) =
  {
    ftran_calls = t.ftran_calls;
    ftran_nnz = t.ftran_nnz;
    btran_calls = t.btran_calls;
    btran_nnz = t.btran_nnz;
  }

let reset_stats (t : t) =
  t.ftran_calls <- 0;
  t.ftran_nnz <- 0;
  t.btran_calls <- 0;
  t.btran_nnz <- 0

let updates_since_refactor t = t.updates
let refactor_count t = t.refactors

let pivot_order t =
  match t.repr with
  | Lu_r lu -> (Array.copy lu.rperm, Array.copy lu.cperm)
  | Dense_r _ -> invalid_arg "Basis.pivot_order: dense backend"

let should_refactorize t = t.updates >= t.update_limit || t.err > err_limit

let set_identity t =
  (match t.repr with
  | Dense_r d -> d.inv <- identity_dense t.m
  | Lu_r _ -> t.repr <- Lu_r (identity_lu t.m));
  t.updates <- 0;
  t.err <- 0.0

let copy_as t knd =
  {
    t with
    knd;
    (* solve scratch and counters are per-holder, never shared *)
    sf = Svec.make t.m;
    sb = Svec.make t.m;
    wz = Array.make t.m 0.0;
    wzi = Array.make t.m 0;
    wstk = Array.make t.m 0;
    wmark = Array.make t.m (-1);
    wstamp = 0;
    unit_row = [| 0 |];
    ftran_calls = 0;
    ftran_nnz = 0;
    btran_calls = 0;
    btran_nnz = 0;
    repr =
      (match t.repr with
      | Dense_r d -> Dense_r { inv = Array.map Array.copy d.inv; nzbuf = Array.make t.m 0 }
      | Lu_r lu ->
        Lu_r
          {
            lu with
            rperm = Array.copy lu.rperm;
            rpos = Array.copy lu.rpos;
            cperm = Array.copy lu.cperm;
            cpos = Array.copy lu.cpos;
            etas = Array.sub lu.etas 0 lu.neta;
            (* factor bodies (lrows .. udiag) are immutable after
               factorization, so sharing them between copies is safe *)
          });
  }

(* Both LU kinds hold the same factors, so one adopts the other's; only
   the Gauss-Jordan inverse is a different representation. *)
let adopt t knd =
  match (t.knd, knd) with
  | (Lu | Lu_full_scan), (Lu | Lu_full_scan) | Dense, Dense -> Some (copy_as t knd)
  | Dense, (Lu | Lu_full_scan) | (Lu | Lu_full_scan), Dense -> None

(* ------------------------------------------------------------------ *)
(* Dense backend: Gauss-Jordan refactorization and rank-one updates    *)

let dense_refactorize m ~basis ~col =
  let b = Array.make_matrix m m 0.0 in
  for i = 0 to m - 1 do
    col basis.(i) (fun r c -> b.(r).(i) <- c)
  done;
  let inv = Array.init m (fun i -> Array.init m (fun k -> if i = k then 1.0 else 0.0)) in
  for c = 0 to m - 1 do
    let best = ref c in
    for r = c + 1 to m - 1 do
      if Float.abs b.(r).(c) > Float.abs b.(!best).(c) then best := r
    done;
    if Float.abs b.(!best).(c) < 1e-12 then raise Singular;
    if !best <> c then begin
      let tmp = b.(c) in
      b.(c) <- b.(!best);
      b.(!best) <- tmp;
      let tmp = inv.(c) in
      inv.(c) <- inv.(!best);
      inv.(!best) <- tmp
    end;
    let piv = b.(c).(c) in
    for k = 0 to m - 1 do
      b.(c).(k) <- b.(c).(k) /. piv;
      inv.(c).(k) <- inv.(c).(k) /. piv
    done;
    for r = 0 to m - 1 do
      if r <> c then begin
        let f = b.(r).(c) in
        if f <> 0.0 then
          for k = 0 to m - 1 do
            b.(r).(k) <- b.(r).(k) -. (f *. b.(c).(k));
            inv.(r).(k) <- inv.(r).(k) -. (f *. inv.(c).(k))
          done
      end
    done
  done;
  inv

(* Rank-one update of the explicit inverse through the nonzero pattern of
   the scaled pivot row (sparse whenever the basis is near an identity, the
   common warm-start case). *)
let dense_update m d ~alpha ~row =
  let piv = alpha.(row) in
  let brow = d.inv.(row) in
  let nz = d.nzbuf in
  let nnz = ref 0 in
  for k = 0 to m - 1 do
    let v = brow.(k) in
    if v <> 0.0 then begin
      brow.(k) <- v /. piv;
      nz.(!nnz) <- k;
      incr nnz
    end
  done;
  let nnz = !nnz in
  let sparse_row = 2 * nnz < m in
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = alpha.(i) in
      if f <> 0.0 then begin
        let bi = d.inv.(i) in
        if sparse_row then
          for u = 0 to nnz - 1 do
            let k = nz.(u) in
            bi.(k) <- bi.(k) -. (f *. brow.(k))
          done
        else
          for k = 0 to m - 1 do
            bi.(k) <- bi.(k) -. (f *. brow.(k))
          done
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Sparse LU factorization with Markowitz pivoting                      *)

(* Threshold for accepting a pivot relative to its column's largest entry:
   larger = more stable, smaller = sparser factors. *)
let markowitz_tau = 0.1

(* How many smallest-count candidate columns to examine per step. *)
let markowitz_cands = 4

(* Heap slots that can hold those candidates: the k-th smallest entry of a
   binary min-heap has at most k - 1 ancestors (each smaller), so the
   [markowitz_cands] smallest all sit in the first 2^markowitz_cands - 1
   slots. *)
let markowitz_window = (1 lsl markowitz_cands) - 1

let lu_refactorize m ~basis ~col =
  (* Working matrix: rows as parallel growable (col, val) arrays; column
     patterns as growable row lists that may carry stale entries (lazily
     compacted against the row store).

     The active (not yet pivoted or dropped) columns sit in an indexed
     binary min-heap keyed by (column count, column): every change to a
     heaped column's count re-sifts it, so each step reads its candidate
     window off the heap's top slots in O(1) and pays O(log m) per count
     change, instead of scanning all m columns.  The window is exactly the
     [markowitz_cands] smallest (count, column) pairs, stale over-estimated
     counts included — the same columns, in the same order, that a scan in
     column order keeping the first of equal counts would pick — so the
     pivot sequence does not depend on how the window is found.

     A column that proves dependent (empty or numerically zero once
     eliminated against the pivots chosen so far) raises {!Singular}. *)
  let rcol = Array.make m [||] and rval = Array.make m [||] in
  let rlen = Array.make m 0 in
  let crow = Array.make m [||] in
  let clen = Array.make m 0 in
  (* [heap.(0 .. !hsize-1)] holds the active columns; [hpos.(c)] is column
     c's slot, -1 before the heap is built and once c is pivoted *)
  let heap = Array.make m 0 and hpos = Array.make m (-1) in
  let hsize = ref 0 in
  let hless a b =
    let la = clen.(a) and lb = clen.(b) in
    la < lb || (la = lb && a < b)
  in
  let hset i c =
    heap.(i) <- c;
    hpos.(c) <- i
  in
  let sift_up c =
    let i = ref hpos.(c) in
    while !i > 0 && hless c heap.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      hset !i heap.(p);
      i := p
    done;
    hset !i c
  in
  let sift_down c =
    let n = !hsize in
    let i = ref hpos.(c) and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let s = if l + 1 < n && hless heap.(l + 1) heap.(l) then l + 1 else l in
        if hless heap.(s) c then begin
          hset !i heap.(s);
          i := s
        end
        else sinking := false
      end
    done;
    hset !i c
  in
  let heap_remove c =
    let i = hpos.(c) in
    decr hsize;
    hpos.(c) <- -1;
    if i < !hsize then begin
      let last = heap.(!hsize) in
      hset i last;
      sift_up last;
      sift_down last
    end
  in
  let active c = hpos.(c) >= 0 in
  let row_push r c v =
    let n = rlen.(r) in
    if n = Array.length rcol.(r) then begin
      let cap = Stdlib.max 4 (2 * n) in
      let nc = Array.make cap 0 and nv = Array.make cap 0.0 in
      Array.blit rcol.(r) 0 nc 0 n;
      Array.blit rval.(r) 0 nv 0 n;
      rcol.(r) <- nc;
      rval.(r) <- nv
    end;
    rcol.(r).(n) <- c;
    rval.(r).(n) <- v;
    rlen.(r) <- n + 1
  in
  let col_push c r =
    let n = clen.(c) in
    if n = Array.length crow.(c) then begin
      let cap = Stdlib.max 4 (2 * n) in
      let nr = Array.make cap 0 in
      Array.blit crow.(c) 0 nr 0 n;
      crow.(c) <- nr
    end;
    crow.(c).(n) <- r;
    clen.(c) <- n + 1;
    if active c then sift_down c
  in
  let row_find r c =
    let a = rcol.(r) and n = rlen.(r) in
    let i = ref 0 in
    while !i < n && a.(!i) <> c do
      incr i
    done;
    if !i < n then !i else -1
  in
  let row_delete r idx =
    let n = rlen.(r) - 1 in
    rcol.(r).(idx) <- rcol.(r).(n);
    rval.(r).(idx) <- rval.(r).(n);
    rlen.(r) <- n
  in
  for i = 0 to m - 1 do
    col basis.(i) (fun r v ->
        if v <> 0.0 then begin
          row_push r i v;
          col_push i r
        end)
  done;
  for c = 0 to m - 1 do
    hset c c
  done;
  hsize := m;
  for i = (m / 2) - 1 downto 0 do
    sift_down heap.(i)
  done;
  let row_active = Array.make m true in
  (* scratch for compacted column entries *)
  let cand_rows = Array.make m 0 and cand_vals = Array.make m 0.0 in
  let seen = Array.make m (-1) in
  let tick = ref 0 in
  (* Rebuild column c's list from live row entries (dedup via [seen]);
     returns the live count with (row, value) pairs in the scratch arrays.
     The count can only shrink, so a heaped column sifts up. *)
  let compact_col c =
    incr tick;
    let t0 = !tick in
    let a = crow.(c) in
    let n = ref 0 in
    for u = 0 to clen.(c) - 1 do
      let r = a.(u) in
      if row_active.(r) && seen.(r) <> t0 then begin
        let idx = row_find r c in
        if idx >= 0 then begin
          seen.(r) <- t0;
          a.(!n) <- r;
          cand_rows.(!n) <- r;
          cand_vals.(!n) <- rval.(r).(idx);
          incr n
        end
      end
    done;
    clen.(c) <- !n;
    if active c then sift_up c;
    !n
  in
  (* outputs *)
  let rperm = Array.make m 0 and rpos = Array.make m 0 in
  let cperm = Array.make m 0 and cpos = Array.make m 0 in
  let lrows = Array.make m [||] and lvals = Array.make m [||] in
  let ucols = Array.make m [||] and uvals = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  (* per-step scratch *)
  let cands = Array.make markowitz_cands 0 in
  let urow_c = Array.make m 0 and urow_v = Array.make m 0.0 in
  let lrow_r = Array.make m 0 and lrow_v = Array.make m 0.0 in
  (* every step pivots one column off the heap *)
  for k = 0 to m - 1 do
    (* --- pivot selection: best Markowitz cost among eligible entries of the
       few smallest-count active columns, sorted out of the heap's top
       slots --- *)
    let ncand = ref 0 in
    for s = 0 to Stdlib.min markowitz_window !hsize - 1 do
      let c = heap.(s) in
      let i = ref !ncand in
      while !i > 0 && hless c cands.(!i - 1) do
        if !i < markowitz_cands then cands.(!i) <- cands.(!i - 1);
        decr i
      done;
      if !i < markowitz_cands then begin
        cands.(!i) <- c;
        if !ncand < markowitz_cands then incr ncand
      end
    done;
    let best_r = ref (-1) and best_c = ref (-1) and best_v = ref 0.0 in
    let best_cost = ref max_int and best_mag = ref 0.0 in
    for t = 0 to !ncand - 1 do
      let c = cands.(t) in
      let n = compact_col c in
      let colmax = ref 0.0 in
      for u = 0 to n - 1 do
        let a = Float.abs cand_vals.(u) in
        if a > !colmax then colmax := a
      done;
      if n = 0 || !colmax < 1e-12 then raise Singular;
      let thresh = markowitz_tau *. !colmax in
      for u = 0 to n - 1 do
        let v = cand_vals.(u) in
        let a = Float.abs v in
        if a >= thresh then begin
          let r = cand_rows.(u) in
          let cost = (rlen.(r) - 1) * (n - 1) in
          if cost < !best_cost || (cost = !best_cost && a > !best_mag) then begin
            best_cost := cost;
            best_mag := a;
            best_r := r;
            best_c := c;
            best_v := v
          end
        end
      done
    done;
    let prow = !best_r and pcol = !best_c and pv = !best_v in
    rperm.(k) <- prow;
    rpos.(prow) <- k;
    cperm.(k) <- pcol;
    cpos.(pcol) <- k;
    row_active.(prow) <- false;
    heap_remove pcol;
    udiag.(k) <- pv;
    (* --- U row k: the pivot row's remaining live entries --- *)
    let un = ref 0 in
    for idx = 0 to rlen.(prow) - 1 do
      let c = rcol.(prow).(idx) in
      if active c then begin
        urow_c.(!un) <- c;
        urow_v.(!un) <- rval.(prow).(idx);
        incr un
      end
    done;
    let un = !un in
    ucols.(k) <- Array.sub urow_c 0 un;
    uvals.(k) <- Array.sub urow_v 0 un;
    (* --- eliminate the pivot column from the remaining active rows --- *)
    let ln = ref 0 in
    let pn = compact_col pcol in
    for u = 0 to pn - 1 do
      let r = cand_rows.(u) and f = cand_vals.(u) in
      let l = f /. pv in
      lrow_r.(!ln) <- r;
      lrow_v.(!ln) <- l;
      incr ln;
      (let idx = row_find r pcol in
       if idx >= 0 then row_delete r idx);
      for w = 0 to un - 1 do
        let c = urow_c.(w) and uv = urow_v.(w) in
        let idx = row_find r c in
        if idx >= 0 then begin
          let old = rval.(r).(idx) in
          let nv = old -. (l *. uv) in
          if Float.abs nv <= 1e-14 *. (Float.abs old +. Float.abs (l *. uv)) then
            row_delete r idx
          else rval.(r).(idx) <- nv
        end
        else begin
          let nv = -.(l *. uv) in
          if nv <> 0.0 then begin
            row_push r c nv;
            col_push c r
          end
        end
      done
    done;
    lrows.(k) <- Array.sub lrow_r 0 !ln;
    lvals.(k) <- Array.sub lrow_v 0 !ln
  done;
  (* convert U column ids from basis positions to elimination steps *)
  for k = 0 to m - 1 do
    let uc = ucols.(k) in
    for t = 0 to Array.length uc - 1 do
      uc.(t) <- cpos.(uc.(t))
    done
  done;
  (* pattern-only step views and their transposes, for the hypersparse
     reachability passes (O(nnz) once per refactorization) *)
  let lsteps = Array.make m [||] in
  let lcnt = Array.make m 0 and ucnt = Array.make m 0 in
  for k = 0 to m - 1 do
    lsteps.(k) <- Array.map (fun r -> rpos.(r)) lrows.(k);
    Array.iter (fun j -> lcnt.(j) <- lcnt.(j) + 1) lsteps.(k);
    Array.iter (fun j -> ucnt.(j) <- ucnt.(j) + 1) ucols.(k)
  done;
  let ltr = Array.init m (fun j -> Array.make lcnt.(j) 0) in
  let utr = Array.init m (fun j -> Array.make ucnt.(j) 0) in
  Array.fill lcnt 0 m 0;
  Array.fill ucnt 0 m 0;
  for k = 0 to m - 1 do
    Array.iter
      (fun j ->
        ltr.(j).(lcnt.(j)) <- k;
        lcnt.(j) <- lcnt.(j) + 1)
      lsteps.(k);
    Array.iter
      (fun j ->
        utr.(j).(ucnt.(j)) <- k;
        ucnt.(j) <- ucnt.(j) + 1)
      ucols.(k)
  done;
  {
    rperm;
    rpos;
    cperm;
    cpos;
    lrows;
    lvals;
    ucols;
    uvals;
    udiag;
    lsteps;
    ltr;
    utr;
    etas = [||];
    neta = 0;
  }

let refactorize t ~basis ~col =
  (* build first, install second: a Singular raise leaves [t] unchanged *)
  (match t.knd with
  | Dense ->
    let inv = dense_refactorize t.m ~basis ~col in
    (match t.repr with Dense_r d -> d.inv <- inv | Lu_r _ -> assert false)
  | Lu | Lu_full_scan -> t.repr <- Lu_r (lu_refactorize t.m ~basis ~col));
  t.updates <- 0;
  t.err <- 0.0;
  t.refactors <- t.refactors + 1

(* ------------------------------------------------------------------ *)
(* Step lists                                                          *)

(* When the reach of a right-hand side exceeds this fraction of the steps,
   graph traversal stops paying for itself (sort + worklist overhead on a
   nearly-dense vector) and the pass runs over every step instead.  Results
   are unchanged either way — a step outside the reach only ever holds a
   zero — so the cap is purely a performance knob. *)
let hyper_cap m = 16 + (m asr 2)

(* In-place ascending sort of a.(lo..hi); the reach sets it orders are
   duplicate-free. *)
let rec qsort_ints (a : int array) lo hi =
  if hi - lo > 12 then begin
    let p = a.((lo + hi) lsr 1) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do
        incr i
      done;
      while a.(!j) > p do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    qsort_ints a lo !j;
    qsort_ints a !i hi
  end
  else
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done

(* Drain the worklist (stack holds [sp] marked seed steps) over the step
   adjacency [succ], collecting every reachable step into [out].  Returns
   the reach size, or -1 once it exceeds [cap] (the stale marks are
   invalidated by the next stamp bump). *)
let drain_reach (succ : int array array) mark stamp (stack : int array) sp
    (out : int array) cap =
  let n = ref 0 in
  let sp = ref sp in
  let overflow = ref false in
  while (not !overflow) && !sp > 0 do
    decr sp;
    let k = stack.(!sp) in
    out.(!n) <- k;
    incr n;
    if !n > cap then overflow := true
    else begin
      let s = succ.(k) in
      for u = 0 to Array.length s - 1 do
        let j = s.(u) in
        if mark.(j) <> stamp then begin
          mark.(j) <- stamp;
          stack.(!sp) <- j;
          incr sp
        end
      done
    end
  done;
  if !overflow then -1 else !n

(* Push step [k] onto the seed stack at [sp] unless this stamp already
   marked it; returns the new stack height. *)
let push_seed t k sp =
  if t.wmark.(k) = t.wstamp then sp
  else begin
    t.wmark.(k) <- t.wstamp;
    t.wstk.(sp) <- k;
    sp + 1
  end

(* Every step 0..m-1 as the step list: the full scan. *)
let all_steps t =
  for k = 0 to t.m - 1 do
    t.wzi.(k) <- k
  done;
  t.m

(* The ascending step list of one triangular pass, left in [t.wzi]: under
   [Lu] the reach over [succ] of the [nseed] seeds on [t.wstk]; every step
   under [Lu_full_scan] or once that reach passes [hyper_cap].  Returns the
   list's length. *)
let reach_steps t succ nseed =
  let n =
    if t.knd = Lu then drain_reach succ t.wmark t.wstamp t.wstk nseed t.wzi (hyper_cap t.m)
    else -1
  in
  if n < 0 then all_steps t
  else begin
    qsort_ints t.wzi 0 (n - 1);
    n
  end

(* The step list of the pass that follows one over [t.wzi.(0 .. n-1)]: the
   reach of that list over [succ], and every step again after a full
   scan. *)
let next_steps t succ n =
  if n = t.m then n
  else begin
    t.wstamp <- t.wstamp + 1;
    let sp = ref 0 in
    for u = 0 to n - 1 do
      sp := push_seed t t.wzi.(u) !sp
    done;
    reach_steps t succ !sp
  end

(* ------------------------------------------------------------------ *)
(* Triangular passes                                                   *)

(* Each pass runs over the [n]-step list in [t.wzi], on the step-indexed
   workspace [t.wz].  The traversal and the full scan are the same loop:
   only the list differs. *)

(* Forward L z = P x: read the row-indexed right-hand side [x] into the
   workspace, zeroing every row the list covers (L column k only touches
   rows that pivot after step k, so row rperm.(k) is final when read). *)
let l_forward t lu (x : float array) n =
  let z = t.wz and pat = t.wzi in
  for u = 0 to n - 1 do
    let k = pat.(u) in
    let r = lu.rperm.(k) in
    let zk = x.(r) in
    x.(r) <- 0.0;
    z.(k) <- zk;
    if zk <> 0.0 then begin
      let lr = lu.lrows.(k) and lv = lu.lvals.(k) in
      for w = 0 to Array.length lr - 1 do
        x.(lr.(w)) <- x.(lr.(w)) -. (lv.(w) *. zk)
      done
    end
  done

(* Back-substitution U y = z, descending (each gather reads later steps). *)
let u_backward t lu n =
  let z = t.wz and pat = t.wzi in
  for u = n - 1 downto 0 do
    let k = pat.(u) in
    let uc = lu.ucols.(k) and uv = lu.uvals.(k) in
    let acc = ref z.(k) in
    for w = 0 to Array.length uc - 1 do
      acc := !acc -. (uv.(w) *. z.(uc.(w)))
    done;
    z.(k) <- !acc /. lu.udiag.(k)
  done

(* Uᵀ d' = d, ascending (each scatter writes later steps). *)
let ut_forward t lu n =
  let z = t.wz and pat = t.wzi in
  for u = 0 to n - 1 do
    let k = pat.(u) in
    let dk = z.(k) /. lu.udiag.(k) in
    z.(k) <- dk;
    if dk <> 0.0 then begin
      let uc = lu.ucols.(k) and uv = lu.uvals.(k) in
      for w = 0 to Array.length uc - 1 do
        z.(uc.(w)) <- z.(uc.(w)) -. (uv.(w) *. dk)
      done
    end
  done

(* Lᵀ e = d, descending (each gather reads later steps, already final). *)
let lt_backward t lu n =
  let z = t.wz and pat = t.wzi in
  for u = n - 1 downto 0 do
    let k = pat.(u) in
    let lr = lu.lrows.(k) and lv = lu.lvals.(k) in
    let acc = ref z.(k) in
    for w = 0 to Array.length lr - 1 do
      acc := !acc -. (lv.(w) *. z.(lu.rpos.(lr.(w))))
    done;
    z.(k) <- !acc
  done

(* Scatter the listed workspace steps into [sv] through [perm] (dropping
   exact zeros), clear the workspace, and leave the pattern sorted
   ascending. *)
let emit_steps t (perm : int array) n (sv : Svec.t) =
  let z = t.wz and pat = t.wzi in
  let vals = sv.Svec.vals and idx = sv.Svec.idx in
  let nz = ref 0 in
  for u = 0 to n - 1 do
    let k = pat.(u) in
    let zk = z.(k) in
    z.(k) <- 0.0;
    if zk <> 0.0 then begin
      let p = perm.(k) in
      vals.(p) <- zk;
      idx.(!nz) <- p;
      incr nz
    end
  done;
  qsort_ints idx 0 (!nz - 1);
  sv.Svec.n <- !nz

(* The dense twin of {!emit_steps}: x.(perm.(k)) := z.(k) for every step,
   clearing the workspace. *)
let scatter_steps t (perm : int array) (x : float array) =
  let z = t.wz in
  for k = 0 to t.m - 1 do
    x.(perm.(k)) <- z.(k);
    z.(k) <- 0.0
  done

(* ------------------------------------------------------------------ *)
(* Product-form eta files                                              *)

let apply_etas lu x =
  for e = 0 to lu.neta - 1 do
    let eta = lu.etas.(e) in
    let xr = x.(eta.er) /. eta.epiv in
    x.(eta.er) <- xr;
    if xr <> 0.0 then begin
      let rs = eta.erows and vs = eta.evals in
      for u = 0 to Array.length rs - 1 do
        x.(rs.(u)) <- x.(rs.(u)) -. (vs.(u) *. xr)
      done
    end
  done

let apply_etas_t lu y =
  for e = lu.neta - 1 downto 0 do
    let eta = lu.etas.(e) in
    let rs = eta.erows and vs = eta.evals in
    let s = ref 0.0 in
    for u = 0 to Array.length rs - 1 do
      s := !s +. (vs.(u) *. y.(rs.(u)))
    done;
    y.(eta.er) <- (y.(eta.er) -. !s) /. eta.epiv
  done

(* Sparse (pattern-tracked) product-form eta application over [sv]'s
   position-indexed values.  Performs the same arithmetic as {!apply_etas}
   on the nonzero entries; positions the dense code would only have written
   a signed zero into are skipped, which the output filter erases anyway. *)
let apply_etas_sparse t lu (sv : Svec.t) =
  if lu.neta > 0 then begin
    let vals = sv.Svec.vals and idx = sv.Svec.idx in
    t.wstamp <- t.wstamp + 1;
    let stamp = t.wstamp in
    let mark = t.wmark in
    for u = 0 to sv.Svec.n - 1 do
      mark.(idx.(u)) <- stamp
    done;
    let n = ref sv.Svec.n in
    for e = 0 to lu.neta - 1 do
      let eta = lu.etas.(e) in
      if mark.(eta.er) = stamp then begin
        let xr = vals.(eta.er) /. eta.epiv in
        vals.(eta.er) <- xr;
        if xr <> 0.0 then begin
          let rs = eta.erows and vs = eta.evals in
          for u = 0 to Array.length rs - 1 do
            let p = rs.(u) in
            vals.(p) <- vals.(p) -. (vs.(u) *. xr);
            if mark.(p) <> stamp then begin
              mark.(p) <- stamp;
              idx.(!n) <- p;
              incr n
            end
          done
        end
      end
    done;
    (* re-filter: eta arithmetic can cancel entries to exact zero, and the
       pattern gained the scatter targets *)
    let k = ref 0 in
    for u = 0 to !n - 1 do
      let p = idx.(u) in
      if vals.(p) <> 0.0 then begin
        idx.(!k) <- p;
        incr k
      end
      else vals.(p) <- 0.0
    done;
    qsort_ints idx 0 (!k - 1);
    sv.Svec.n <- !k
  end

(* The transposed twin, position-indexed input: same arithmetic as
   {!apply_etas_t} wherever it matters (an unwritten position differs from
   the dense result only in the sign of zero). *)
let apply_etas_t_sparse t lu (sv : Svec.t) =
  if lu.neta > 0 then begin
    let vals = sv.Svec.vals and idx = sv.Svec.idx in
    t.wstamp <- t.wstamp + 1;
    let stamp = t.wstamp in
    let mark = t.wmark in
    for u = 0 to sv.Svec.n - 1 do
      mark.(idx.(u)) <- stamp
    done;
    let n = ref sv.Svec.n in
    for e = lu.neta - 1 downto 0 do
      let eta = lu.etas.(e) in
      let rs = eta.erows and vs = eta.evals in
      let s = ref 0.0 in
      for u = 0 to Array.length rs - 1 do
        s := !s +. (vs.(u) *. vals.(rs.(u)))
      done;
      if mark.(eta.er) = stamp || !s <> 0.0 then begin
        vals.(eta.er) <- (vals.(eta.er) -. !s) /. eta.epiv;
        if mark.(eta.er) <> stamp then begin
          mark.(eta.er) <- stamp;
          idx.(!n) <- eta.er;
          incr n
        end
      end
    done;
    let k = ref 0 in
    for u = 0 to !n - 1 do
      let p = idx.(u) in
      if vals.(p) <> 0.0 then begin
        idx.(!k) <- p;
        incr k
      end
      else vals.(p) <- 0.0
    done;
    qsort_ints idx 0 (!k - 1);
    sv.Svec.n <- !k
  end

(* ------------------------------------------------------------------ *)
(* Public solves                                                       *)

(* The dense solves run the triangular passes over every step through the
   step workspace and their own arrays, never through the svecs [sf]/[sb]:
   a caller may still hold the last sparse FTRAN or BTRAN across them. *)
let ftran_dense t b =
  match t.repr with
  | Dense_r d ->
    let out = Array.make t.m 0.0 in
    for i = 0 to t.m - 1 do
      let bi = d.inv.(i) in
      let acc = ref 0.0 in
      for k = 0 to t.m - 1 do
        acc := !acc +. (bi.(k) *. b.(k))
      done;
      out.(i) <- !acc
    done;
    out
  | Lu_r lu ->
    let x = Array.copy b in
    let n = all_steps t in
    l_forward t lu x n;
    u_backward t lu n;
    scatter_steps t lu.cperm x;
    apply_etas lu x;
    x

let btran_dense_into t c y =
  match t.repr with
  | Dense_r d ->
    Array.fill y 0 t.m 0.0;
    for i = 0 to t.m - 1 do
      let ci = c.(i) in
      if ci <> 0.0 then begin
        let bi = d.inv.(i) in
        for k = 0 to t.m - 1 do
          y.(k) <- y.(k) +. (ci *. bi.(k))
        done
      end
    done
  | Lu_r lu ->
    Array.blit c 0 y 0 t.m;
    apply_etas_t lu y;
    for k = 0 to t.m - 1 do
      t.wz.(k) <- y.(lu.cperm.(k))
    done;
    let n = all_steps t in
    ut_forward t lu n;
    lt_backward t lu n;
    scatter_steps t lu.rperm y

(* ------------------------------------------------------------------ *)
(* Sparse-result solves (the simplex hot path)                         *)

(* B^-1 a for the sparse column in rows/coefs slots [off .. off+len-1].
   Result in [t]'s FTRAN svec: valid until the next ftran_*_sparse on
   [t]. *)
let ftran_col_sparse t (rows : int array) (coefs : float array) ~off ~len =
  let sv = t.sf in
  Svec.clear sv;
  (match t.repr with
  | Dense_r d ->
    (* dense-inverse oracle: row-times-column products, compacted *)
    let vals = sv.Svec.vals and idx = sv.Svec.idx in
    let n = ref 0 in
    for i = 0 to t.m - 1 do
      let bi = d.inv.(i) in
      let acc = ref 0.0 in
      for k = 0 to len - 1 do
        acc := !acc +. (bi.(rows.(off + k)) *. coefs.(off + k))
      done;
      if !acc <> 0.0 then begin
        vals.(i) <- !acc;
        idx.(!n) <- i;
        incr n
      end
    done;
    sv.Svec.n <- !n
  | Lu_r lu ->
    let vals = sv.Svec.vals in
    t.wstamp <- t.wstamp + 1;
    let nseed = ref 0 in
    for k = 0 to len - 1 do
      let r = rows.(off + k) in
      vals.(r) <- vals.(r) +. coefs.(off + k);
      nseed := push_seed t lu.rpos.(r) !nseed
    done;
    let n = reach_steps t lu.lsteps !nseed in
    l_forward t lu vals n;
    let n = next_steps t lu.utr n in
    u_backward t lu n;
    emit_steps t lu.cperm n sv;
    apply_etas_sparse t lu sv);
  t.ftran_calls <- t.ftran_calls + 1;
  t.ftran_nnz <- t.ftran_nnz + sv.Svec.n;
  sv

let unit_coef = [| 1.0 |]

let ftran_unit_sparse t r =
  t.unit_row.(0) <- r;
  ftran_col_sparse t t.unit_row unit_coef ~off:0 ~len:1

(* Row r of B^-1 (equivalently B^-T e_r) as a sparse row-indexed vector.
   Result in [t]'s BTRAN svec: valid until the next btran_unit_sparse on
   [t], and in particular across an interleaved FTRAN. *)
let btran_unit_sparse t r =
  let sv = t.sb in
  Svec.clear sv;
  (match t.repr with
  | Dense_r d ->
    let vals = sv.Svec.vals and idx = sv.Svec.idx in
    let bi = d.inv.(r) in
    let n = ref 0 in
    for k = 0 to t.m - 1 do
      let v = bi.(k) in
      if v <> 0.0 then begin
        vals.(k) <- v;
        idx.(!n) <- k;
        incr n
      end
    done;
    sv.Svec.n <- !n
  | Lu_r lu ->
    let vals = sv.Svec.vals in
    vals.(r) <- 1.0;
    sv.Svec.idx.(0) <- r;
    sv.Svec.n <- 1;
    apply_etas_t_sparse t lu sv;
    (* move the position-indexed pattern into the step workspace *)
    t.wstamp <- t.wstamp + 1;
    let nseed = ref 0 in
    for u = 0 to sv.Svec.n - 1 do
      let p = sv.Svec.idx.(u) in
      let k = lu.cpos.(p) in
      t.wz.(k) <- vals.(p);
      vals.(p) <- 0.0;
      nseed := push_seed t k !nseed
    done;
    sv.Svec.n <- 0;
    let n = reach_steps t lu.ucols !nseed in
    ut_forward t lu n;
    let n = next_steps t lu.ltr n in
    lt_backward t lu n;
    emit_steps t lu.rperm n sv);
  t.btran_calls <- t.btran_calls + 1;
  t.btran_nnz <- t.btran_nnz + sv.Svec.n;
  sv

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

(* Record the basis change that replaces the column in basis position [row]
   by the entering column whose FTRAN is [alpha].  The stability guards and
   the eta are derived from the pattern alone (svec patterns carry no exact
   zeros).  The {!Dense} backend reads the svec's dense backing store
   directly. *)
let update_sparse t ~(alpha : Svec.t) ~row =
  let piv = alpha.Svec.vals.(row) in
  let apiv = Float.abs piv in
  let amax = ref 0.0 in
  for u = 0 to alpha.Svec.n - 1 do
    let a = Float.abs alpha.Svec.vals.(alpha.Svec.idx.(u)) in
    if a > !amax then amax := a
  done;
  if apiv < pivot_abs_min || apiv < pivot_rel_min *. !amax then false
  else if t.updates >= t.update_limit then false
  else begin
    (match t.repr with
    | Dense_r d -> dense_update t.m d ~alpha:alpha.Svec.vals ~row
    | Lu_r lu ->
      let nnz = ref 0 in
      for u = 0 to alpha.Svec.n - 1 do
        if alpha.Svec.idx.(u) <> row then incr nnz
      done;
      let rs = Array.make !nnz 0 and vs = Array.make !nnz 0.0 in
      let p = ref 0 in
      for u = 0 to alpha.Svec.n - 1 do
        let i = alpha.Svec.idx.(u) in
        if i <> row then begin
          rs.(!p) <- i;
          vs.(!p) <- alpha.Svec.vals.(i);
          incr p
        end
      done;
      if lu.neta = Array.length lu.etas then begin
        let cap = Stdlib.max 8 (2 * lu.neta) in
        let bigger =
          Array.make cap { er = 0; epiv = 1.0; erows = [||]; evals = [||] }
        in
        Array.blit lu.etas 0 bigger 0 lu.neta;
        lu.etas <- bigger
      end;
      lu.etas.(lu.neta) <- { er = row; epiv = piv; erows = rs; evals = vs };
      lu.neta <- lu.neta + 1);
    t.updates <- t.updates + 1;
    t.err <- t.err +. (1e-16 *. (!amax /. apiv));
    true
  end
