(* Factorized simplex basis: sparse LU, kept current between
   refactorizations by Forrest–Tomlin updates of U.  A refactorization
   reads B once into compressed columns and rows, pivots column singletons
   in O(nnz) — simplex bases are nearly triangular, so this takes most
   steps — and runs Markowitz pivoting (threshold partial pivoting for
   stability, minimum fill-in cost for sparsity) only on the nucleus left
   over.  The factors are flat compressed arrays, written without per-step
   allocation, and never change afterwards.  All solves run through the
   triangular factors and the update overlay, touching nonzeros only.

   Index conventions (shared with Simplex): the basis matrix B is m x m with
   rows = constraint rows and column i = constraint column basis.(i) (a
   "basis position").  FTRAN inputs are row-indexed and outputs basis-
   position-indexed; BTRAN is the reverse.

   A Forrest–Tomlin update (Math. Programming 2, 1972) replacing the column
   at U step s by the entering column's spike L⁻¹a_q moves step s to the
   end of the elimination order and clears its row with one row eta.  Here
   the refactorized U stays as it is: step s is marked dead (its workspace
   entry is zero whenever a pass reads it, which deletes its old row and
   column), and a new step m + i is appended whose U column is the spike.
   The row eta sets z(m + i) = z(s) − Σ r_j z(j) and z(s) = 0; FTRAN applies
   the row etas in order after L, BTRAN their transposes in reverse before
   Lᵀ.  Appended steps sort after every refactorized one, so U stays upper
   triangular in step order.  When the new diagonal disagrees with the
   pivot times the old diagonal (the determinant identity; Suhl & Suhl,
   Annals of OR 43, 1993) the update is refused and the caller
   refactorizes. *)

(* Each of the four triangular passes (L, U, Uᵀ, Lᵀ) is one loop over a
   list of elimination steps; the appended U columns and the row etas are
   loops over every update.  The sparse solves list the steps reachable
   from the right-hand side's nonzeros through the factor patterns; the
   dense solves list every step, ascending.  A scattering pass (L, Uᵀ)
   sums each entry's scatters in list order, so its reach is sorted
   ascending too; a gathering pass (U, Lᵀ) computes each entry from its
   own row whatever the order, as long as the entries it reads come first,
   and takes its reach in depth-first postorder.  The entries a reach
   skips are structural zeros, so both perform bit-identical
   floating-point operations on every reachable entry. *)

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

(* Growable (index, value) slots: B's entries as read, the L columns / U
   rows as the elimination writes them, or the update overlay's columns
   and row etas, one after another in a pair of flat arrays. *)
type slots = { mutable si : int array; mutable sv : float array; mutable sn : int }

let slots_make () = { si = [||]; sv = [||]; sn = 0 }

let slots_push s i v =
  let n = s.sn in
  if n = Array.length s.si then begin
    let cap = Stdlib.max 16 (2 * n) in
    let ni = Array.make cap 0 and nv = Array.make cap 0.0 in
    Array.blit s.si 0 ni 0 n;
    Array.blit s.sv 0 nv 0 n;
    s.si <- ni;
    s.sv <- nv
  end;
  s.si.(n) <- i;
  s.sv.(n) <- v;
  s.sn <- n + 1

let slots_copy s = { si = Array.sub s.si 0 s.sn; sv = Array.sub s.sv 0 s.sn; sn = s.sn }

(* A compressed pattern of m entries: entry k's indices sit in slots
   ptr.(k) .. ptr.(k+1) - 1 of [idx]. *)
type pattern = { ptr : int array; idx : int array }

type lu = {
  rperm : int array;  (* elimination step -> constraint row *)
  rpos : int array;  (* constraint row -> elimination step *)
  cperm : int array;  (* elimination step -> basis position *)
  cpos : int array;  (* basis position -> elimination step *)
  lcol : pattern;  (* L column k: constraint rows below the pivot *)
  lval : float array;  (* matching multipliers, slot for slot *)
  urow : pattern;  (* U row k: later elimination steps *)
  uval : float array;
  udiag : float array;
  (* pattern-only views for the hypersparse reachability passes: [lsteps] is
     [lcol] with constraint rows mapped to their elimination steps, and
     [ltr]/[utr] are the transposed patterns of [lsteps]/[urow] (step j ->
     steps k < j whose L column / U row contains j) *)
  lsteps : pattern;
  ltr : pattern;
  utr : pattern;
}

(* Update-chain budget: a refactorization is due after this many
   updates. *)
let update_limit = 96

type t = {
  m : int;
  mutable lu : lu;
  (* the update overlay, per holder (steps m .. m + updates - 1 are the
     appended ones; update i appended step m + i) *)
  spos : int array;  (* basis position -> U step (m) *)
  pstep : int array;  (* U step -> basis position (m + update_limit) *)
  dead : bool array;  (* steps vacated by an update (m + update_limit) *)
  vac : int array;  (* update i's vacated step *)
  adiag : float array;  (* update i's U diagonal *)
  aptr : int array;  (* update i's U column: slots aptr.(i) .. aptr.(i+1)-1 of [acol] *)
  acol : slots;  (* (earlier step, value) *)
  (* the appended columns' entries indexed by step: [ahead.(k)] is the last
     [acol] slot holding step k (-1 when none), [anext.(w)] the slot before
     [w] holding the same step and [aupd.(w)] the update whose column holds
     slot [w].  A column holds a step at most once, so an update reads the
     vacated row off one list instead of scanning every column. *)
  ahead : int array;  (* m + update_limit *)
  mutable anext : int array;  (* parallel to [acol] *)
  mutable aupd : int array;
  eptr : int array;  (* update i's row eta: slots eptr.(i) .. eptr.(i+1)-1 of [erow] *)
  erow : slots;  (* (later step, multiplier) *)
  mutable updates : int;
  mutable err : float;
  mutable refactors : int;
  (* solve scratch owned by the factorization: the two svec results (FTRAN
     and BTRAN directions are separate so a pivot can hold both at once), a
     step-indexed workspace [wz] kept all-zero between calls, the step list
     [wzi] the triangular passes run over, a traversal worklist, step marks,
     a depth-first stack of steps and their next edges,
     the one-entry row array of the unit FTRAN's column, the digit counts
     of the result patterns' radix sort, and the last sparse FTRAN's spike
     (its step vector after L and the row etas, the U column an update
     appends) *)
  sf : Svec.t;
  sb : Svec.t;
  wz : float array;
  wzi : int array;
  wstk : int array;
  wmark : int array;
  mutable wstamp : int;
  dstk : int array;
  dptr : int array;
  unit_row : int array;
  rcount : int array;
  spike : slots;
  mutable spike_ok : bool;  (* [spike] belongs to [sf] on the current factors *)
  (* per-solve kernel counters (reset by {!reset_stats}) *)
  mutable ftran_calls : int;
  mutable ftran_nnz : int;
  mutable btran_calls : int;
  mutable btran_nnz : int;
}

(* Accumulated-error threshold: each accepted pivot contributes an estimate
   proportional to its growth factor; crossing this forces refactorization
   even when the chain is short. *)
let err_limit = 1e-8

(* A pivot below either bound cannot be applied stably: absolute floor, and
   a relative test against the largest entry of the FTRAN'd column. *)
let pivot_abs_min = 1e-9
let pivot_rel_min = 1e-7

(* The new U diagonal must match alpha_r times the old one to this relative
   tolerance; a larger gap means the update has lost accuracy. *)
let diag_rel_tol = 1e-8

(* A solve entry below this magnitude is roundoff left by cancellation: the
   pass that finalizes it stores a zero, so it neither fills the result nor
   spreads through the reach of the passes after it.  Without the drop,
   such entries were ~30% of FTRAN results, and an update chain stores
   them in its spikes and row etas, so the chain fills U as it grows. *)
let drop_tol = 1e-14

let drop v = if Float.abs v < drop_tol then 0.0 else v

(* A solve result's pattern is sorted by least-significant-digit radix
   passes of this many bits of a position (see {!radix_sort_ints}). *)
let radix_bits = 7
let radix_size = 1 lsl radix_bits

let identity_lu m =
  let empty = { ptr = Array.make (m + 1) 0; idx = [||] } in
  {
    rperm = Array.init m Fun.id;
    rpos = Array.init m Fun.id;
    cperm = Array.init m Fun.id;
    cpos = Array.init m Fun.id;
    lcol = empty;
    lval = [||];
    urow = empty;
    uval = [||];
    udiag = Array.make m 1.0;
    lsteps = empty;
    ltr = empty;
    utr = empty;
  }

(* Solve scratch for an m x m basis: steps run to m + update_limit. *)
let fresh_scratch (t : t) =
  let steps = t.m + update_limit in
  {
    t with
    sf = Svec.make t.m;
    sb = Svec.make t.m;
    wz = Array.make steps 0.0;
    wzi = Array.make steps 0;
    wstk = Array.make steps 0;
    wmark = Array.make steps (-1);
    wstamp = 0;
    dstk = Array.make steps 0;
    dptr = Array.make steps 0;
    unit_row = [| 0 |];
    rcount = Array.make radix_size 0;
    spike = { si = Array.make steps 0; sv = Array.make steps 0.0; sn = 0 };
    spike_ok = false;
    ftran_calls = 0;
    ftran_nnz = 0;
    btran_calls = 0;
    btran_nnz = 0;
  }

let create ~m =
  let lu = identity_lu m in
  let steps = m + update_limit in
  let pstep = Array.make steps 0 in
  Array.blit lu.cperm 0 pstep 0 m;
  fresh_scratch
  {
    m;
    lu;
    spos = Array.copy lu.cpos;
    pstep;
    dead = Array.make steps false;
    vac = Array.make update_limit 0;
    adiag = Array.make update_limit 0.0;
    aptr = Array.make (update_limit + 1) 0;
    acol = slots_make ();
    ahead = Array.make steps (-1);
    anext = [||];
    aupd = [||];
    eptr = Array.make (update_limit + 1) 0;
    erow = slots_make ();
    updates = 0;
    err = 0.0;
    refactors = 0;
    sf = Svec.make 0;
    sb = Svec.make 0;
    wz = [||];
    wzi = [||];
    wstk = [||];
    wmark = [||];
    wstamp = 0;
    dstk = [||];
    dptr = [||];
    unit_row = [||];
    rcount = [||];
    spike = slots_make ();
    spike_ok = false;
    ftran_calls = 0;
    ftran_nnz = 0;
    btran_calls = 0;
    btran_nnz = 0;
  }

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

let pivot_order t = (Array.copy t.lu.rperm, Array.copy t.lu.cperm)

let should_refactorize t = t.updates >= update_limit || t.err > err_limit

(* Install [lu] with an empty overlay: O(m + updates). *)
let install t lu =
  for i = 0 to t.updates - 1 do
    t.dead.(t.vac.(i)) <- false
  done;
  for w = 0 to t.acol.sn - 1 do
    t.ahead.(t.acol.si.(w)) <- -1
  done;
  t.lu <- lu;
  Array.blit lu.cpos 0 t.spos 0 t.m;
  Array.blit lu.cperm 0 t.pstep 0 t.m;
  t.acol.sn <- 0;
  t.erow.sn <- 0;
  t.updates <- 0;
  t.err <- 0.0;
  t.spike_ok <- false

let set_identity t = install t (identity_lu t.m)

(* The refactorized factors are immutable, so copies share them; the
   overlay is duplicated, and the solve scratch and counters start fresh:
   O(m + the overlay's nonzeros). *)
let copy t =
  fresh_scratch
    {
      t with
      spos = Array.copy t.spos;
      pstep = Array.copy t.pstep;
      dead = Array.copy t.dead;
      vac = Array.copy t.vac;
      adiag = Array.copy t.adiag;
      aptr = Array.copy t.aptr;
      acol = slots_copy t.acol;
      ahead = Array.copy t.ahead;
      anext = Array.sub t.anext 0 t.acol.sn;
      aupd = Array.sub t.aupd 0 t.acol.sn;
      eptr = Array.copy t.eptr;
      erow = slots_copy t.erow;
    }

(* ------------------------------------------------------------------ *)
(* Sparse LU factorization: column singletons, then Markowitz          *)

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

(* A column whose largest active entry is below this is numerically
   dependent on the columns pivoted before it. *)
let singular_tol = 1e-12

(* Write the transpose of the m-entry pattern [p] over indices 0 .. m-1
   into [ptr] (m + 1 slots) and [idx]: entry j lists, ascending, every k
   whose entry holds j.  A non-empty [tvals] receives [vals] (one value per
   slot of [p]) alongside. *)
let transpose_into m (p : pattern) vals ptr idx tvals =
  Array.fill ptr 0 (m + 1) 0;
  for s = 0 to p.ptr.(m) - 1 do
    let j = p.idx.(s) + 1 in
    ptr.(j) <- ptr.(j) + 1
  done;
  for j = 1 to m do
    ptr.(j) <- ptr.(j) + ptr.(j - 1)
  done;
  (* ptr.(j) is entry j's first slot; filling advances it to the next
     entry's first, so a shift restores the starts *)
  for k = 0 to m - 1 do
    for s = p.ptr.(k) to p.ptr.(k + 1) - 1 do
      let j = p.idx.(s) in
      let d = ptr.(j) in
      idx.(d) <- k;
      if Array.length tvals > 0 then tvals.(d) <- vals.(s);
      ptr.(j) <- d + 1
    done
  done;
  for j = m downto 1 do
    ptr.(j) <- ptr.(j - 1)
  done;
  ptr.(0) <- 0

let transpose m (p : pattern) =
  let ptr = Array.make (m + 1) 0 and idx = Array.make p.ptr.(m) 0 in
  transpose_into m p [||] ptr idx [||];
  { ptr; idx }

(* Refactorization scratch: B's compressed columns and rows, the singleton
   pass's counts and stack, the nucleus's working rows and columns and its
   count heap, and the slots the steps write L and U into before the
   factors are copied out at their exact sizes.  One per domain, reused by
   every refactorization there and grown to the largest basis it has met:
   a refactorization allocates its factors, the nucleus's rows and columns
   and little else, and fresh major-heap memory is what an O(nnz) pass
   would otherwise spend most of its time on.  The nucleus's row and
   column arrays are dropped at the end of each call, so between calls the
   scratch holds flat arrays only. *)
type scratch = {
  cap : int;  (* the m the m-indexed arrays below hold *)
  bptr : int array;
  rptr : int array;
  mutable ridx : int array;  (* B's rows, nnz(B) slots *)
  mutable rvals : float array;
  cnt : int array;
  stack : int array;
  row_active : bool array;
  rcol : int array array;
  rval : float array array;
  rlen : int array;
  crow : int array array;
  clen : int array;
  heap : int array;
  hpos : int array;
  cand_rows : int array;
  cand_vals : float array;
  seen : int array;
  bs : slots;  (* B's columns, entry after entry *)
  ls : slots;
  us : slots;
}

let scratch_make m =
  {
    cap = m;
    bptr = Array.make (m + 1) 0;
    rptr = Array.make (m + 1) 0;
    ridx = [||];
    rvals = [||];
    cnt = Array.make m 0;
    stack = Array.make m 0;
    row_active = Array.make m true;
    rcol = Array.make m [||];
    rval = Array.make m [||];
    rlen = Array.make m 0;
    crow = Array.make m [||];
    clen = Array.make m 0;
    heap = Array.make m 0;
    hpos = Array.make m (-1);
    cand_rows = Array.make m 0;
    cand_vals = Array.make m 0.0;
    seen = Array.make m (-1);
    bs = slots_make ();
    ls = slots_make ();
    us = slots_make ();
  }

let scratch_key = Domain.DLS.new_key (fun () -> scratch_make 0)

(* This domain's scratch, with room for an m x m basis. *)
let scratch m =
  let w = Domain.DLS.get scratch_key in
  if w.cap >= m then w
  else begin
    let w = scratch_make m in
    Domain.DLS.set scratch_key w;
    w
  end

let lu_refactorize m ~basis ~col =
  let w = scratch m in
  (* B, read once: compressed columns (entries in the callback's order) and
     compressed rows (entries in ascending basis position). *)
  let bptr = w.bptr and b = w.bs in
  b.sn <- 0;
  let push r v = if v <> 0.0 then slots_push b r v in
  for i = 0 to m - 1 do
    col basis.(i) push;
    bptr.(i + 1) <- b.sn
  done;
  let nnz = b.sn in
  if Array.length w.ridx < nnz then begin
    let cap = Stdlib.max nnz (2 * Array.length w.ridx) in
    w.ridx <- Array.make cap 0;
    w.rvals <- Array.make cap 0.0
  end;
  let bcol = { ptr = bptr; idx = b.si } and bval = b.sv in
  let brow = { ptr = w.rptr; idx = w.ridx } and brval = w.rvals in
  transpose_into m bcol bval brow.ptr brow.idx brval;
  (* outputs: the L columns and U rows of steps 0 .. k-1 fill slots
     [lptr.(k)] and [uptr.(k)] onwards; U rows hold basis positions until
     the end maps them to steps *)
  let rperm = Array.make m 0 and rpos = Array.make m 0 in
  let cperm = Array.make m 0 and cpos = Array.make m (-1) in
  let udiag = Array.make m 0.0 in
  let lptr = Array.make (m + 1) 0 and uptr = Array.make (m + 1) 0 in
  let lslots = w.ls and uslots = w.us in
  lslots.sn <- 0;
  uslots.sn <- 0;
  let row_active = w.row_active in
  Array.fill row_active 0 m true;
  let pivot k r c v =
    rperm.(k) <- r;
    rpos.(r) <- k;
    cperm.(k) <- c;
    cpos.(c) <- k;
    udiag.(k) <- v;
    row_active.(r) <- false
  in
  (* --- column singletons, O(nnz): a LIFO stack of the active columns with
     one active row (position 0 on top at the start).  Pivoting such a
     column eliminates nothing — its L column is empty and its row's other
     entries are its U row — so the only update is the count of each column
     in that row, which is pushed when it drops to 1.  Every column of an
     active row is still active: a pivoted column's other entries lie in
     rows pivoted before it. --- *)
  let cnt = w.cnt and stack = w.stack and sp = ref 0 in
  for c = m - 1 downto 0 do
    let n = bptr.(c + 1) - bptr.(c) in
    if n = 0 then raise Singular;
    cnt.(c) <- n;
    if n = 1 then begin
      stack.(!sp) <- c;
      incr sp
    end
  done;
  let steps = ref 0 in
  while !sp > 0 do
    decr sp;
    let c = stack.(!sp) in
    let s = ref bptr.(c) in
    while not row_active.(bcol.idx.(!s)) do
      incr s
    done;
    let r = bcol.idx.(!s) and v = bval.(!s) in
    if Float.abs v < singular_tol then raise Singular;
    let k = !steps in
    pivot k r c v;
    for s = brow.ptr.(r) to brow.ptr.(r + 1) - 1 do
      let c' = brow.idx.(s) in
      if c' <> c then begin
        slots_push uslots c' brval.(s);
        let n = cnt.(c') - 1 in
        if n = 0 then raise Singular;
        cnt.(c') <- n;
        if n = 1 then begin
          stack.(!sp) <- c';
          incr sp
        end
      end
    done;
    lptr.(k + 1) <- lslots.sn;
    uptr.(k + 1) <- uslots.sn;
    steps := k + 1
  done;
  (* --- the nucleus left over: Markowitz elimination.  Working matrix: rows
     as parallel growable (col, val) arrays; column patterns as growable row
     lists that may carry stale entries (lazily compacted against the row
     store).

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
     eliminated against the pivots chosen so far) raises {!Singular}. --- *)
  if !steps < m then begin
    let rcol = w.rcol and rval = w.rval and rlen = w.rlen in
    let crow = w.crow and clen = w.clen in
    for r = 0 to m - 1 do
      if row_active.(r) then begin
        let s0 = brow.ptr.(r) and n = brow.ptr.(r + 1) - brow.ptr.(r) in
        rcol.(r) <- Array.sub brow.idx s0 n;
        rval.(r) <- Array.sub brval s0 n;
        rlen.(r) <- n
      end
      else rlen.(r) <- 0
    done;
    for c = 0 to m - 1 do
      clen.(c) <- 0;
      if cpos.(c) < 0 then begin
        let a = Array.make cnt.(c) 0 and n = ref 0 in
        for s = bptr.(c) to bptr.(c + 1) - 1 do
          let r = bcol.idx.(s) in
          if row_active.(r) then begin
            a.(!n) <- r;
            incr n
          end
        done;
        crow.(c) <- a;
        clen.(c) <- !n
      end
    done;
    (* [heap.(0 .. !hsize-1)] holds the active columns; [hpos.(c)] is column
       c's slot, -1 once c is pivoted *)
    let heap = w.heap and hpos = w.hpos in
    Array.fill hpos 0 m (-1);
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
    for c = 0 to m - 1 do
      if cpos.(c) < 0 then begin
        hset !hsize c;
        incr hsize
      end
    done;
    for i = (!hsize / 2) - 1 downto 0 do
      sift_down heap.(i)
    done;
    (* scratch for compacted column entries *)
    let cand_rows = w.cand_rows and cand_vals = w.cand_vals and seen = w.seen in
    Array.fill seen 0 m (-1);
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
    let cands = Array.make markowitz_cands 0 in
    (* every step pivots one column off the heap *)
    for k = !steps to m - 1 do
      (* --- pivot selection: best Markowitz cost among eligible entries of
         the few smallest-count active columns, sorted out of the heap's
         top slots --- *)
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
        if n = 0 || !colmax < singular_tol then raise Singular;
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
      pivot k prow pcol pv;
      heap_remove pcol;
      (* --- U row k: the pivot row's remaining live entries --- *)
      let u0 = uslots.sn in
      for idx = 0 to rlen.(prow) - 1 do
        let c = rcol.(prow).(idx) in
        if active c then slots_push uslots c rval.(prow).(idx)
      done;
      uptr.(k + 1) <- uslots.sn;
      (* --- eliminate the pivot column from the remaining active rows --- *)
      let pn = compact_col pcol in
      for t = 0 to pn - 1 do
        let r = cand_rows.(t) and f = cand_vals.(t) in
        let lk = f /. pv in
        slots_push lslots r lk;
        (let idx = row_find r pcol in
         if idx >= 0 then row_delete r idx);
        for q = u0 to uslots.sn - 1 do
          let c = uslots.si.(q) and uv = uslots.sv.(q) in
          let idx = row_find r c in
          if idx >= 0 then begin
            let old = rval.(r).(idx) in
            let nv = old -. (lk *. uv) in
            if Float.abs nv <= 1e-14 *. (Float.abs old +. Float.abs (lk *. uv)) then
              row_delete r idx
            else rval.(r).(idx) <- nv
          end
          else begin
            let nv = -.(lk *. uv) in
            if nv <> 0.0 then begin
              row_push r c nv;
              col_push c r
            end
          end
        done
      done;
      lptr.(k + 1) <- lslots.sn
    done;
    (* the nucleus's grown rows and columns are not kept for the next call *)
    Array.fill rcol 0 m [||];
    Array.fill rval 0 m [||];
    Array.fill crow 0 m [||]
  end;
  (* U column ids from basis positions to elimination steps, then the
     pattern-only step views and their transposes for the hypersparse
     reachability passes (O(nnz) once per refactorization) *)
  let lidx = Array.sub lslots.si 0 lslots.sn and lval = Array.sub lslots.sv 0 lslots.sn in
  let uidx = Array.sub uslots.si 0 uslots.sn and uval = Array.sub uslots.sv 0 uslots.sn in
  for s = 0 to Array.length uidx - 1 do
    uidx.(s) <- cpos.(uidx.(s))
  done;
  let lcol = { ptr = lptr; idx = lidx } and urow = { ptr = uptr; idx = uidx } in
  let lsteps = { ptr = lptr; idx = Array.map (fun r -> rpos.(r)) lidx } in
  let ltr = transpose m lsteps and utr = transpose m urow in
  {
    rperm;
    rpos;
    cperm;
    cpos;
    lcol;
    lval;
    urow;
    uval;
    udiag;
    lsteps;
    ltr;
    utr;
  }

let refactorize t ~basis ~col =
  (* build first, install second: a Singular raise leaves [t] unchanged *)
  install t (lu_refactorize t.m ~basis ~col);
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
let drain_reach (succ : pattern) mark stamp (stack : int array) sp (out : int array) cap =
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
      for u = succ.ptr.(k) to succ.ptr.(k + 1) - 1 do
        let j = succ.idx.(u) in
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

(* A fresh stamp for a U pass, with every dead step already marked: no
   seed or traversal enters one. *)
let u_stamp t =
  t.wstamp <- t.wstamp + 1;
  for i = 0 to t.updates - 1 do
    t.wmark.(t.vac.(i)) <- t.wstamp
  done

(* Every refactorized step 0..m-1 as the step list: an L pass's full
   scan. *)
let all_steps t =
  for k = 0 to t.m - 1 do
    t.wzi.(k) <- k
  done;
  t.m

(* The refactorized steps no update vacated: a U pass's full scan. *)
let live_steps t =
  let n = ref 0 in
  for k = 0 to t.m - 1 do
    if not t.dead.(k) then begin
      t.wzi.(!n) <- k;
      incr n
    end
  done;
  !n

(* Append the live appended steps to the [n]-step list in [t.wzi]. *)
let append_live t n =
  let n = ref n in
  for i = 0 to t.updates - 1 do
    let c = t.m + i in
    if not t.dead.(c) then begin
      t.wzi.(!n) <- c;
      incr n
    end
  done;
  !n

(* The ascending reach over [succ] of the [nseed] seeds on [t.wstk], left
   in [t.wzi]; -1 once it passes [hyper_cap].  The scattering passes (L,
   Uᵀ) need ascending order: a workspace entry sums its scatters in step
   order, as the full scan does. *)
let reach t succ nseed =
  let n = drain_reach succ t.wmark t.wstamp t.wstk nseed t.wzi (hyper_cap t.m) in
  if n > 0 then qsort_ints t.wzi 0 (n - 1);
  n

(* The reach over [succ] of the [nroot] steps on [t.wstk], depth first
   under a fresh stamp (dead steps marked, so never entered, when
   [skip_dead]), left in [t.wzi] in postorder: each step after every step
   it reaches.  A gathering pass (U, Lᵀ) walks it descending, so a step
   comes after the steps it reads; a gather's sum does not depend on which
   such order, so no sort is needed.  -1 once it passes [hyper_cap]. *)
let reach_postorder t succ nroot ~skip_dead =
  if skip_dead then u_stamp t else t.wstamp <- t.wstamp + 1;
  let mark = t.wmark and stamp = t.wstamp and out = t.wzi in
  let stk = t.dstk and ptr = t.dptr and cap = hyper_cap t.m in
  let n = ref 0 and r = ref 0 in
  while !n >= 0 && !r < nroot do
    let root = t.wstk.(!r) in
    incr r;
    if mark.(root) <> stamp then begin
      mark.(root) <- stamp;
      stk.(0) <- root;
      ptr.(0) <- succ.ptr.(root);
      let top = ref 0 in
      while !top >= 0 do
        let k = stk.(!top) in
        let e = succ.ptr.(k + 1) in
        let q = ref ptr.(!top) in
        while !q < e && mark.(succ.idx.(!q)) = stamp do
          incr q
        done;
        if !q < e then begin
          let j = succ.idx.(!q) in
          ptr.(!top) <- !q + 1;
          mark.(j) <- stamp;
          incr top;
          stk.(!top) <- j;
          ptr.(!top) <- succ.ptr.(j)
        end
        else if !n >= cap then begin
          n := -1;
          top := -1
        end
        else begin
          out.(!n) <- k;
          incr n;
          decr top
        end
      done
    end
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Triangular passes                                                   *)

(* Each pass over refactorized steps runs over the [n]-step list in
   [t.wzi], on the step-indexed workspace [t.wz].  The traversal and the
   full scan are the same loop: only the list differs. *)

(* Forward L z = P x: read the row-indexed right-hand side [x] into the
   workspace, zeroing every row the list covers (L column k only touches
   rows that pivot after step k, so row rperm.(k) is final when read). *)
let l_forward t lu (x : float array) n =
  let z = t.wz and pat = t.wzi in
  for u = 0 to n - 1 do
    let k = pat.(u) in
    let r = lu.rperm.(k) in
    let zk = drop x.(r) in
    x.(r) <- 0.0;
    z.(k) <- zk;
    if zk <> 0.0 then begin
      let lr = lu.lcol.idx and lv = lu.lval in
      for w = lu.lcol.ptr.(k) to lu.lcol.ptr.(k + 1) - 1 do
        x.(lr.(w)) <- x.(lr.(w)) -. (lv.(w) *. zk)
      done
    end
  done

(* Back-substitution U y = z, walking the list backwards (each gather reads
   steps listed after it; a dead step reads as the zero that deletes its
   column). *)
let u_backward t lu n =
  let z = t.wz and pat = t.wzi in
  for u = n - 1 downto 0 do
    let k = pat.(u) in
    let uc = lu.urow.idx and uv = lu.uval in
    let acc = ref z.(k) in
    for w = lu.urow.ptr.(k) to lu.urow.ptr.(k + 1) - 1 do
      acc := !acc -. (uv.(w) *. z.(uc.(w)))
    done;
    z.(k) <- drop (!acc /. lu.udiag.(k))
  done

(* Uᵀ d' = d, ascending (each scatter writes later steps; what lands on a
   dead step is wiped by [clear_dead]). *)
let ut_forward t lu n =
  let z = t.wz and pat = t.wzi in
  for u = 0 to n - 1 do
    let k = pat.(u) in
    let dk = drop (z.(k) /. lu.udiag.(k)) in
    z.(k) <- dk;
    if dk <> 0.0 then begin
      let uc = lu.urow.idx and uv = lu.uval in
      for w = lu.urow.ptr.(k) to lu.urow.ptr.(k + 1) - 1 do
        z.(uc.(w)) <- z.(uc.(w)) -. (uv.(w) *. dk)
      done
    end
  done

(* Lᵀ e = d, walking the list backwards (each gather reads steps listed
   after it, already final). *)
let lt_backward t lu n =
  let z = t.wz and pat = t.wzi in
  for u = n - 1 downto 0 do
    let k = pat.(u) in
    let lr = lu.lcol.idx and lv = lu.lval in
    let acc = ref z.(k) in
    for w = lu.lcol.ptr.(k) to lu.lcol.ptr.(k + 1) - 1 do
      acc := !acc -. (lv.(w) *. z.(lu.rpos.(lr.(w))))
    done;
    z.(k) <- drop !acc
  done

(* Zero the dead steps: a dead row's entries are gone from U, so whatever a
   scatter left there is dropped. *)
let clear_dead t =
  for i = 0 to t.updates - 1 do
    t.wz.(t.vac.(i)) <- 0.0
  done

(* The row etas in update order: z(m + i) = z(s) - r_i . z, z(s) = 0. *)
let row_etas_forward t =
  let z = t.wz and e = t.erow in
  for i = 0 to t.updates - 1 do
    let s = t.vac.(i) in
    let acc = ref z.(s) in
    for w = t.eptr.(i) to t.eptr.(i + 1) - 1 do
      acc := !acc -. (e.sv.(w) *. z.(e.si.(w)))
    done;
    z.(s) <- 0.0;
    z.(t.m + i) <- drop !acc
  done

(* Their transposes in reverse: z(s) = z(m + i), z(j) -= r_ij z(m + i),
   z(m + i) = 0 (z(s) is zero beforehand: s was dead for every later
   update).  With [seed], every refactorized step written is pushed as a
   seed of the Lᵀ pass.  Returns the seed stack height. *)
let row_etas_backward t ~seed sp =
  let z = t.wz and e = t.erow and sp = ref sp in
  for i = t.updates - 1 downto 0 do
    let c = t.m + i in
    let zc = drop z.(c) in
    z.(c) <- 0.0;
    if zc <> 0.0 then begin
      let s = t.vac.(i) in
      z.(s) <- zc;
      if seed && s < t.m then sp := push_seed t s !sp;
      for w = t.eptr.(i) to t.eptr.(i + 1) - 1 do
        let j = e.si.(w) in
        z.(j) <- z.(j) -. (e.sv.(w) *. zc);
        if seed && j < t.m then sp := push_seed t j !sp
      done
    end
  done;
  !sp

(* The appended U columns, descending: each live step divides by its
   diagonal and scatters into the earlier steps of its column.  With
   [seed], every refactorized step written is pushed as a seed of the U
   pass that follows.  Returns the seed stack height. *)
let u_backward_appended t ~seed sp =
  let z = t.wz and a = t.acol and sp = ref sp in
  for i = t.updates - 1 downto 0 do
    let c = t.m + i in
    if not t.dead.(c) then begin
      let v = drop (z.(c) /. t.adiag.(i)) in
      z.(c) <- v;
      if v <> 0.0 then
        for w = t.aptr.(i) to t.aptr.(i + 1) - 1 do
          let j = a.si.(w) in
          z.(j) <- z.(j) -. (a.sv.(w) *. v);
          if seed && j < t.m then sp := push_seed t j !sp
        done
    end
  done;
  !sp

(* Uᵀ over the appended columns, ascending: each live step gathers its
   column's (final) earlier steps and divides by its diagonal. *)
let ut_forward_appended t =
  let z = t.wz and a = t.acol in
  for i = 0 to t.updates - 1 do
    let c = t.m + i in
    if not t.dead.(c) then begin
      let acc = ref z.(c) in
      for w = t.aptr.(i) to t.aptr.(i + 1) - 1 do
        acc := !acc -. (a.sv.(w) *. z.(a.si.(w)))
      done;
      z.(c) <- drop (!acc /. t.adiag.(i))
    end
  done

(* Record the step vector an FTRAN holds after L and the row etas — the
   [n]-step L list plus the appended steps — as the spike an update of this
   column appends. *)
let save_spike t n =
  let z = t.wz and s = t.spike in
  s.sn <- 0;
  let keep k =
    let v = z.(k) in
    if v <> 0.0 then begin
      s.si.(s.sn) <- k;
      s.sv.(s.sn) <- v;
      s.sn <- s.sn + 1
    end
  in
  for u = 0 to n - 1 do
    keep t.wzi.(u)
  done;
  for i = 0 to t.updates - 1 do
    keep (t.m + i)
  done;
  t.spike_ok <- true

(* FTRAN after the L pass over the [n]-step list in [t.wzi] ([n] = m when
   it ran every step): the row etas, the appended U columns, then the
   refactorized U over the reach of what they leave — every live step after
   a full L pass or once the reach passes the cap.  Leaves the live result
   steps in [t.wzi] and returns their count. *)
let ftran_upper t n ~save =
  let lu = t.lu in
  row_etas_forward t;
  if save then save_spike t n;
  t.wstamp <- t.wstamp + 1;
  let full = n = t.m in
  let sp = ref 0 in
  if not full then
    for u = 0 to n - 1 do
      sp := push_seed t t.wzi.(u) !sp
    done;
  let sp = u_backward_appended t ~seed:(not full) !sp in
  clear_dead t;
  let n = if full then -1 else reach_postorder t lu.utr sp ~skip_dead:true in
  let n = if n < 0 then live_steps t else n in
  u_backward t lu n;
  append_live t n

(* BTRAN from the Uᵀ pass over the [n] refactorized steps listed in
   [t.wzi] ([full]: every live one): the appended columns, the transposed
   row etas, then Lᵀ over the reach of what they leave — every step when
   [full] or once the reach passes the cap.  Returns the Lᵀ list's
   length. *)
let btran_lower t n ~full =
  let lu = t.lu in
  ut_forward t lu n;
  clear_dead t;
  ut_forward_appended t;
  t.wstamp <- t.wstamp + 1;
  let sp = ref 0 in
  if not full then
    for u = 0 to n - 1 do
      sp := push_seed t t.wzi.(u) !sp
    done;
  let sp = row_etas_backward t ~seed:(not full) !sp in
  let n = if full then -1 else reach_postorder t lu.ltr sp ~skip_dead:false in
  let n = if n < 0 then all_steps t else n in
  lt_backward t lu n;
  n

(* Below this many entries a result pattern is sorted by {!qsort_ints}:
   a radix pass costs O(radix_size) whatever the length. *)
let radix_min = 25

(* In-place ascending sort of the distinct a.(0..n-1), each in
   [0, bound): one counting pass per [radix_bits] bits of [bound - 1],
   lowest digit first, alternating between [a] and [tmp] (length >= n);
   [count] holds the [radix_size] digit counts.  Each pass is stable, so
   the result is the ascending order. *)
let radix_sort_ints count (a : int array) (tmp : int array) n ~bound =
  let mask = radix_size - 1 in
  let src = ref a and dst = ref tmp and shift = ref 0 in
  while (bound - 1) lsr !shift > 0 do
    let src' = !src and dst' = !dst and sh = !shift in
    Array.fill count 0 radix_size 0;
    for u = 0 to n - 1 do
      let d = (src'.(u) lsr sh) land mask in
      count.(d) <- count.(d) + 1
    done;
    let sum = ref 0 in
    for d = 0 to mask do
      let c = count.(d) in
      count.(d) <- !sum;
      sum := !sum + c
    done;
    for u = 0 to n - 1 do
      let v = src'.(u) in
      let d = (v lsr sh) land mask in
      dst'.(count.(d)) <- v;
      count.(d) <- count.(d) + 1
    done;
    src := dst';
    dst := src';
    shift := sh + radix_bits
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* Scatter the listed workspace steps into [sv] through [perm] (dropping
   exact zeros), clear the workspace, and leave the pattern sorted
   ascending.  The step list [t.wzi] is spent once scattered, so the
   radix sort uses it as its second buffer. *)
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
  if !nz < radix_min then qsort_ints idx 0 (!nz - 1)
  else radix_sort_ints t.rcount idx pat !nz ~bound:t.m;
  sv.Svec.n <- !nz

(* The dense twin of {!emit_steps}: x.(perm.(k)) := z.(k) for every listed
   step, clearing the workspace. *)
let scatter_steps t (perm : int array) n (x : float array) =
  let z = t.wz and pat = t.wzi in
  for u = 0 to n - 1 do
    let k = pat.(u) in
    x.(perm.(k)) <- z.(k);
    z.(k) <- 0.0
  done

(* ------------------------------------------------------------------ *)
(* Public solves                                                       *)

(* The dense solves run every pass over every step through the step
   workspace and their own arrays, never through the svecs [sf]/[sb] or the
   spike: a caller may still hold the last sparse FTRAN or BTRAN, or be
   about to update with it, across them. *)
let ftran_dense_in_place t x =
  let n = all_steps t in
  l_forward t t.lu x n;
  let n = ftran_upper t n ~save:false in
  scatter_steps t t.pstep n x

let btran_dense_into t c y =
  for p = 0 to t.m - 1 do
    t.wz.(t.spos.(p)) <- c.(p)
  done;
  let n = btran_lower t (live_steps t) ~full:true in
  scatter_steps t t.lu.rperm n y

(* ------------------------------------------------------------------ *)
(* Sparse-result solves (the simplex hot path)                         *)

(* B^-1 a for the sparse column in rows/coefs slots [off .. off+len-1].
   Result in [t]'s FTRAN svec: valid until the next ftran_*_sparse on
   [t]. *)
let ftran_col_sparse t (rows : int array) (coefs : float array) ~off ~len =
  let sv = t.sf and lu = t.lu in
  Svec.clear sv;
  let vals = sv.Svec.vals in
  t.wstamp <- t.wstamp + 1;
  let nseed = ref 0 in
  for k = 0 to len - 1 do
    let r = rows.(off + k) in
    vals.(r) <- vals.(r) +. coefs.(off + k);
    nseed := push_seed t lu.rpos.(r) !nseed
  done;
  let n = reach t lu.lsteps !nseed in
  let n = if n < 0 then all_steps t else n in
  l_forward t lu vals n;
  let n = ftran_upper t n ~save:true in
  emit_steps t t.pstep n sv;
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
  let sv = t.sb and lu = t.lu in
  Svec.clear sv;
  let k = t.spos.(r) in
  t.wz.(k) <- 1.0;
  u_stamp t;
  let n = if k < t.m then reach t lu.urow (push_seed t k 0) else 0 in
  let full = n < 0 in
  let n = btran_lower t (if full then live_steps t else n) ~full in
  emit_steps t lu.rperm n sv;
  t.btran_calls <- t.btran_calls + 1;
  t.btran_nnz <- t.btran_nnz + sv.Svec.n;
  sv

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

(* Append (step [k], [v]) to update [i]'s U column and to step k's
   list. *)
let acol_push t k v i =
  let w = t.acol.sn in
  slots_push t.acol k v;
  let cap = Array.length t.acol.si in
  if Array.length t.anext < cap then begin
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 w;
      b
    in
    t.anext <- grow t.anext;
    t.aupd <- grow t.aupd
  end;
  t.anext.(w) <- t.ahead.(k);
  t.aupd.(w) <- i;
  t.ahead.(k) <- w

(* Replace the column in basis position [row] by the entering column whose
   FTRAN is [alpha] (the last sparse FTRAN on [t], whose spike is kept).
   Vacated step s = spos.(row); its row of U past the diagonal gives the
   row eta r, solving rᵀ U = (that row) over the steps after s (one Uᵀ
   pass); the appended step's diagonal is spike(s) - r . spike and its
   column the rest of the spike.  The factorization is untouched until
   every guard has passed: a refused update drops the row eta it
   staged. *)
let update_sparse t ~(alpha : Svec.t) ~row =
  let piv = alpha.Svec.vals.(row) in
  let apiv = Float.abs piv in
  let amax = ref 0.0 in
  for u = 0 to alpha.Svec.n - 1 do
    let a = Float.abs alpha.Svec.vals.(alpha.Svec.idx.(u)) in
    if a > !amax then amax := a
  done;
  if apiv < pivot_abs_min || apiv < pivot_rel_min *. !amax then false
  else if t.updates >= update_limit || alpha != t.sf || not t.spike_ok then false
  else begin
    let lu = t.lu and z = t.wz and m = t.m in
    let s = t.spos.(row) in
    (* row s past its diagonal: the refactorized row's live entries and the
       appended columns' entries in row s *)
    u_stamp t;
    let sp = ref 0 in
    if s < m then
      for w = lu.urow.ptr.(s) to lu.urow.ptr.(s + 1) - 1 do
        let j = lu.urow.idx.(w) in
        if not t.dead.(j) then begin
          z.(j) <- lu.uval.(w);
          sp := push_seed t j !sp
        end
      done;
    let a = t.acol in
    let w = ref t.ahead.(s) in
    while !w >= 0 do
      z.(m + t.aupd.(!w)) <- a.sv.(!w);
      w := t.anext.(!w)
    done;
    let n = reach t lu.urow !sp in
    let n = if n < 0 then live_steps t else n in
    ut_forward t lu n;
    clear_dead t;
    ut_forward_appended t;
    let spike = t.spike in
    let ss = ref 0.0 and dot = ref 0.0 in
    for u = 0 to spike.sn - 1 do
      let k = spike.si.(u) in
      if k = s then ss := spike.sv.(u) else dot := !dot +. (z.(k) *. spike.sv.(u))
    done;
    let dnew = !ss -. !dot in
    (* r into the row-eta slots, clearing the workspace *)
    let e = t.erow in
    let e0 = e.sn in
    let take k =
      let v = z.(k) in
      z.(k) <- 0.0;
      if v <> 0.0 then slots_push e k v
    in
    for u = 0 to n - 1 do
      take t.wzi.(u)
    done;
    for i = 0 to t.updates - 1 do
      take (m + i)
    done;
    let expect = piv *. if s < m then lu.udiag.(s) else t.adiag.(s - m) in
    if not (Float.abs (dnew -. expect) <= diag_rel_tol *. Float.abs expect) then begin
      e.sn <- e0;
      false
    end
    else begin
      let i = t.updates in
      t.vac.(i) <- s;
      t.dead.(s) <- true;
      t.eptr.(i + 1) <- e.sn;
      for u = 0 to spike.sn - 1 do
        if spike.si.(u) <> s then acol_push t spike.si.(u) spike.sv.(u) i
      done;
      t.aptr.(i + 1) <- a.sn;
      t.adiag.(i) <- dnew;
      t.spos.(row) <- m + i;
      t.pstep.(m + i) <- row;
      t.updates <- i + 1;
      t.err <- t.err +. (1e-16 *. (!amax /. apiv));
      t.spike_ok <- false;
      true
    end
  end
