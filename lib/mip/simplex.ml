(* Column status.  A column is either basic (its value is determined by the
   basis equations) or nonbasic pinned at one of its bounds; free nonbasic
   columns sit at zero. *)
type col_status = Basic | At_lower | At_upper | Nb_free

(* A restartable basis snapshot: which column is basic in each row plus the
   bound every nonbasic column rests on.  [wfac] optionally carries the
   matching basis factorization so a restart can skip refactorization; a
   solve through a workspace returns [None] (the workspace keeps its
   factors), so a snapshot stays O(ntotal). *)
type warm_basis = {
  wcols : int array;  (* wcols.(i) = column basic in row i *)
  wstatus : col_status array;  (* one entry per column incl. slacks *)
  wfac : Basis.t option;  (* basis factorization matching wcols *)
}

(* Hot-path kernel counters for one solve: average FTRAN/BTRAN result
   nonzeros (the hypersparse win is exactly these staying far below m). *)
type kernel_stats = {
  avg_ftran_nnz : float;
  avg_btran_nnz : float;
}

type result =
  | Optimal of {
      x : float array;
      obj : float;
      iterations : int;
      dual_iterations : int;
      bland_iterations : int;
      duals : float array;
      basis : warm_basis;
      kstats : kernel_stats;
    }
  | Infeasible of { infeasibility : int }
  | Unbounded
  | Iteration_limit of { feasible : bool; obj : float }

type state = {
  std : Model.std;
  m : int;
  ntotal : int;  (* structural columns + one slack per row *)
  lb : float array;
  ub : float array;
  obj : float array;
  status : col_status array;
  xval : float array;
  mutable basics_fresh : bool;
      (* the basic values are [recompute_basics]'s output for the current
         basis, factors and nonbasic values: set by it, cleared by every
         step that moves a value ([apply_move], [pivot], the dual phase's
         step); a caller moving a nonbasic value recomputes *)
  basis : int array;  (* basis.(i) = column basic in row i *)
  mutable fac : Basis.t;  (* factorized basis (LU + update chain) *)
  mutable bland : bool;  (* anti-cycling mode *)
  mutable degenerate_run : int;
  degen_limit : int;  (* consecutive degenerate pivots before Bland mode *)
  mutable iterations : int;
  mutable infeasible : int;
      (* basic variables outside their bounds by more than [feas_tol]: kept
         by [apply_move] and [pivot], recounted by [recompute_basics] and
         after the dual phase *)
  mutable dual_pivots : int;
  mutable bland_pivots : int;  (* pivots whose entering column Bland chose *)
  (* cached simplex multipliers y = c_B^T B^-1: recomputed by BTRAN in
     phase 1 (the phase-1 cost vector moves with the iterate) and after
     refactorization, updated incrementally after phase-2 pivots *)
  dual : float array;
  mutable dual_valid : bool;
  mutable dual_phase1 : bool;
  (* solver-owned basic-cost buffer for the dual BTRAN (reusable across
     solves through {!workspace}) *)
  cb : float array;  (* m *)
  (* right-hand side, then basic values, of [recompute_basics] *)
  rwork : float array;  (* m *)
  (* cached reduced costs d_j = c_j - y . A_j under [dual]: maintained
     incrementally across pivots by [update_prices_after_pivot] — in phase
     1 only while no bystander basic crosses a violation boundary (see
     [phase1_costs_shift]) — and otherwise rebuilt in one row-major pass
     skipping zero multiplier rows.  The pricing scan never forms a
     column-times-dual dot product. *)
  dvec : float array;  (* ntotal *)
  mutable dvec_valid : bool;
  (* pivot-row pricing scratch: prod.(j) = (e_r B^-1) . A_j over the
     columns the pivot row touches, with a packed pattern and dedup
     stamps (prod is garbage off-pattern) *)
  prod : float array;  (* ntotal *)
  prod_pat : int array;  (* ntotal *)
  pmark : int array;  (* ntotal *)
  mutable pstamp : int;  (* current [pmark] stamp *)
  (* Devex candidate list: the set of improving nonbasic columns,
     maintained incrementally.  A column's candidacy can only change when
     its reduced cost or status changes, and every such change flows
     through the sparse pivot-row pricing pass (or a bound flip of the
     column itself) — so the per-iteration pricing scan walks this list
     instead of all of ntotal, dropping dead entries as it goes.  The
     invariant is one-sided: every improving column is in the list; the
     list may also hold stale non-improving entries until a scan prunes
     them.  [cl_mark.(j) = cl_gen] means j is in the list; rebuilt from a
     full scan whenever the reduced-cost cache itself is rebuilt. *)
  clist : int array;  (* ntotal *)
  mutable clist_n : int;
  cl_mark : int array;  (* ntotal *)
  mutable cl_gen : int;
  mutable clist_valid : bool;
  (* Devex reference-framework state.  [devex_w.(j)] approximates the
     steepest-edge weight of column j relative to the basis at the last
     reference reset; weights of basic columns are frozen until they leave.
     The exact Forrest-Goldfarb update needs the pivot row over every
     nonbasic column, which this revised simplex never forms densely;
     instead each pivot's sparse pivot-row pricing pass (the same one that
     updates the cached reduced costs) folds w_j <- max(w_j, g * (rho .
     A_j)^2) over exactly the columns the row touches — off-row columns
     have rho . A_j = 0 and their weights are untouched by construction. *)
  devex_w : float array;
  mutable devex_strikes : int;  (* weight-accuracy violations observed *)
  mutable devex_gen : int;  (* bumped by every reference reset *)
  trace : (iteration:int -> min_devex_weight:float -> unit) option;
}

(* Primal feasibility and dual (reduced-cost) optimality tolerances, and
   the smallest pivot-column entry the ratio tests accept. *)
let feas_tol = 1e-7
let dual_tol = 1e-7
let pivot_tol = 1e-9

(* -------------------------------------------------------------------- *)
(* Column access: structural columns come from the compiled sparse form;
   slack column [nvars + i] is the unit vector e_i.                      *)

let iter_column (std : Model.std) j f =
  if j < std.nvars then begin
    let p = std.col_ptr in
    let ind = std.col_ind and vl = std.col_val in
    for k = p.(j) to p.(j + 1) - 1 do
      f ind.(k) vl.(k)
    done
  end
  else f (j - std.nvars) 1.0

(* alpha = B^-1 * A_j through the factorization, as a sparse vector in the
   factorization's FTRAN scratch (valid until the next FTRAN). *)
let ftran st j =
  if j < st.std.nvars then begin
    let off = st.std.col_ptr.(j) in
    Basis.ftran_col_sparse st.fac st.std.col_ind st.std.col_val ~off
      ~len:(st.std.col_ptr.(j + 1) - off)
  end
  else Basis.ftran_unit_sparse st.fac (j - st.std.nvars)

(* -------------------------------------------------------------------- *)
(* Basis maintenance                                                     *)

(* Restart the Devex reference framework: all weights one (the current
   basis becomes the reference basis).  Fired on a cold (re)start, on entry
   to Bland mode, and when the accuracy check has struck out.  Routine
   refactorization deliberately does NOT reset: it changes the factors, not
   the basis, so the reference framework the weights were accumulated under
   is still the truth — wiping them there measurably inflated Devex pivot
   counts. *)
let reset_devex st =
  Array.fill st.devex_w 0 st.ntotal 1.0;
  st.devex_strikes <- 0;
  st.devex_gen <- st.devex_gen + 1

(* Devex accuracy policy.  At pivot time the exact steepest-edge measure of
   the entering column, 1 + ||alpha||², is available for free from the
   FTRAN.  The reference-framework weight approximates the norm over a
   subset of that sum, so it should never exceed the exact measure by much;
   when the stored weight overshoots it by [devex_weight_slack] the
   framework has drifted — one strike — and [devex_max_strikes] strikes
   force a reset. *)
let devex_weight_slack = 3.0
let devex_max_strikes = 3

(* Sparsity-aware tie-breaking for the Devex scan: among candidates whose
   scores are within this factor of the best seen, prefer the column with
   the fewest nonzeros.  The reference-framework weights are coarse
   approximations, so a small score band is inside the rule's own noise —
   but entering a sparser column buys a cheaper FTRAN, a sparser spike and
   a sparser pivot row for every downstream update, which is where the wall
   clock actually goes on hypersparse models. *)
let devex_sparsity_band = 1.5

(* Rebuild the factorization from scratch for the current basis columns.
   Bounds numerical drift from the update chain.  Raises Basis.Singular
   (leaving the factors unchanged) when elimination breaks down. *)
let refactor st =
  Basis.refactorize st.fac ~basis:st.basis ~col:(iter_column st.std);
  st.dual_valid <- false;
  st.dvec_valid <- false

let infeasibility_of st b =
  let x = st.xval.(b) in
  if x < st.lb.(b) -. feas_tol then st.lb.(b) -. x
  else if x > st.ub.(b) +. feas_tol then x -. st.ub.(b)
  else 0.0

(* 1 when variable [b] violates a bound by more than [feas_tol], else 0. *)
let violates st b = Bool.to_int (infeasibility_of st b > 0.0)

(* Recount [st.infeasible] from scratch: one pass over the basic rows. *)
let count_infeasible st =
  let count = ref 0 in
  for i = 0 to st.m - 1 do
    count := !count + violates st st.basis.(i)
  done;
  st.infeasible <- !count

let recompute_basics st =
  (* x_B = B^-1 (rhs - sum over nonbasic columns of A_j x_j) *)
  let r = st.rwork in
  Array.blit st.std.rhs 0 r 0 st.m;
  let nvars = st.std.nvars and p = st.std.col_ptr in
  let ind = st.std.col_ind and vl = st.std.col_val in
  for j = 0 to st.ntotal - 1 do
    if st.status.(j) <> Basic && st.xval.(j) <> 0.0 then begin
      let v = st.xval.(j) in
      if j < nvars then
        for k = p.(j) to p.(j + 1) - 1 do
          r.(ind.(k)) <- r.(ind.(k)) -. (vl.(k) *. v)
        done
      else
        (* the slack's column is e_i: its coefficient 1.0 times v is v *)
        let i = j - nvars in
        r.(i) <- r.(i) -. v
    end
  done;
  Basis.ftran_dense_in_place st.fac r;
  for i = 0 to st.m - 1 do
    st.xval.(st.basis.(i)) <- r.(i)
  done;
  st.basics_fresh <- true;
  count_infeasible st

(* -------------------------------------------------------------------- *)
(* Pricing                                                               *)

(* Phase-1 cost of the basic variable in row [i]: the gradient of its bound
   violation.  Nonbasic columns always have zero phase-1 cost. *)
let phase1_cost st i =
  let b = st.basis.(i) in
  let x = st.xval.(b) in
  if x < st.lb.(b) -. feas_tol then -1.0
  else if x > st.ub.(b) +. feas_tol then 1.0
  else 0.0

(* Simplex multipliers into the caller buffer [dst] (length m), through the
   solver-owned basic-cost scratch: no allocation on the phase-1 path that
   runs this every iteration. *)
let compute_duals_into st ~phase1 dst =
  let cb = st.cb in
  for i = 0 to st.m - 1 do
    cb.(i) <- (if phase1 then phase1_cost st i else st.obj.(st.basis.(i)))
  done;
  Basis.btran_dense_into st.fac cb dst

(* The BTRAN that used to run every iteration is hoisted into a cached dual
   vector, updated by one sparse unit-BTRAN per pivot (see
   [update_prices_after_pivot]).  Phase-1 pivots keep the cache too as long
   as the step moved no bystander basic across a violation boundary (the
   cost vector is the violation gradient of the iterate; see
   [phase1_costs_shift]); boundary-crossing steps, phase changes and fresh
   refactorizations pay the full recompute. *)
let ensure_duals st ~phase1 =
  if (not st.dual_valid) || st.dual_phase1 <> phase1 then begin
    compute_duals_into st ~phase1 st.dual;
    st.dual_valid <- true;
    st.dual_phase1 <- phase1
  end

(* prod.(j) = row . A_j over every column, from ONE row-major pass over the
   sparse B^-1 row's pattern: each touched row contributes to the columns
   it intersects (compiled row arrays) plus its own slack.  Returns the
   pattern length; prod holds garbage off-pattern, so readers must stay on
   [prod_pat] (or check [pmark] against the stamp this call leaves in
   [st.pstamp]).  Cost is the total nonzero count of the touched rows —
   independent of ntotal, the hypersparse analogue of pricing a dense pivot
   row against every column. *)
let price_row st (row : Basis.Svec.t) =
  st.pstamp <- st.pstamp + 1;
  let stamp = st.pstamp in
  let prod = st.prod and pat = st.prod_pat and mark = st.pmark in
  let nvars = st.std.nvars in
  let row_cols = st.std.row_cols and row_coefs = st.std.row_coefs in
  let np = ref 0 in
  for u = 0 to row.Basis.Svec.n - 1 do
    let r = row.Basis.Svec.idx.(u) in
    let br = row.Basis.Svec.vals.(r) in
    let cols = row_cols.(r) and coefs = row_coefs.(r) in
    for k = 0 to Array.length cols - 1 do
      let j = cols.(k) in
      let v = br *. coefs.(k) in
      if mark.(j) <> stamp then begin
        mark.(j) <- stamp;
        pat.(!np) <- j;
        incr np;
        prod.(j) <- v
      end
      else prod.(j) <- prod.(j) +. v
    done;
    (* the slack of row r is e_r: touched exactly once, by row r itself *)
    let j = nvars + r in
    mark.(j) <- stamp;
    pat.(!np) <- j;
    incr np;
    prod.(j) <- br
  done;
  !np

(* Rebuild the cached reduced costs from the cached duals in one row-major
   pass that skips zero multiplier rows: d_j = c_j - sum_r y_r A_rj.  The
   old per-column dots paid O(nnz(A)) unconditionally; this pays only for
   the rows y actually weights — under phase-1 costs y is supported on the
   violated rows' BTRAN footprint.  Runs on refactorization, phase entry,
   and the phase-1 steps that shift a bystander's violation gradient. *)
let recompute_dvec st ~phase1 =
  let d = st.dvec and y = st.dual in
  let nvars = st.std.nvars in
  if phase1 then Array.fill d 0 st.ntotal 0.0
  else Array.blit st.obj 0 d 0 st.ntotal;
  let row_cols = st.std.row_cols and row_coefs = st.std.row_coefs in
  for r = 0 to st.m - 1 do
    let yr = y.(r) in
    if yr <> 0.0 then begin
      let cols = row_cols.(r) and coefs = row_coefs.(r) in
      for k = 0 to Array.length cols - 1 do
        let j = cols.(k) in
        d.(j) <- d.(j) -. (yr *. coefs.(k))
      done;
      d.(nvars + r) <- d.(nvars + r) -. yr
    end
  done

(* Make both price caches (duals and reduced costs) valid for [phase1].
   When the duals had to be recomputed (phase change, refactorization,
   phase-1 iterate moved) the reduced costs follow. *)
let ensure_prices st ~phase1 =
  let fresh = (not st.dual_valid) || st.dual_phase1 <> phase1 in
  ensure_duals st ~phase1;
  if fresh || not st.dvec_valid then begin
    recompute_dvec st ~phase1;
    st.dvec_valid <- true;
    (* the reduced costs jumped wholesale; the candidate list built on the
       old values no longer bounds the improving set *)
    st.clist_valid <- false
  end

(* Direction the entering variable would move, or None if it is not an
   improving candidate.  Columns with a zero-width range never enter. *)
let entering_direction st ~d j =
  if st.ub.(j) -. st.lb.(j) <= 0.0 then None
  else
    match st.status.(j) with
    | Basic -> None
    | At_lower -> if d < -.dual_tol then Some 1.0 else None
    | At_upper -> if d > dual_tol then Some (-1.0) else None
    | Nb_free ->
      if d < -.dual_tol then Some 1.0
      else if d > dual_tol then Some (-1.0)
      else None

(* Candidate-list maintenance (Devex pricing).  [rebuild_clist]
   seeds the list with every improving column in one full scan — bumping
   the membership generation retires all old marks at once.  [clist_add]
   admits a column whose reduced cost or status just changed; non-improving
   and already-listed columns are refused, so list entries are distinct and
   the list can never outgrow ntotal.  Dead entries are pruned lazily by
   the pricing scan itself. *)
let rebuild_clist st =
  st.cl_gen <- st.cl_gen + 1;
  st.clist_n <- 0;
  let dvec = st.dvec in
  for j = 0 to st.ntotal - 1 do
    if st.status.(j) <> Basic then begin
      let d = dvec.(j) in
      match entering_direction st ~d j with
      | Some _ ->
        st.cl_mark.(j) <- st.cl_gen;
        st.clist.(st.clist_n) <- j;
        st.clist_n <- st.clist_n + 1
      | None -> ()
    end
  done;
  st.clist_valid <- true

let clist_add st j =
  if st.clist_valid && st.cl_mark.(j) <> st.cl_gen && st.status.(j) <> Basic
  then begin
    let d = st.dvec.(j) in
    match entering_direction st ~d j with
    | Some _ ->
      st.cl_mark.(j) <- st.cl_gen;
      st.clist.(st.clist_n) <- j;
      st.clist_n <- st.clist_n + 1
    | None -> ()
  end

(* Shared phase-2 pivot epilogue for the price caches.  After the pivot in
   [row] (entering column [q], leaving column [leaving], entering reduced
   cost [d]):
   - y' = y + d * (new B^-1 pivot row), the product-form dual update;
   - d_j' = d_j - d * (row . A_j) for every nonbasic column, via the
     sparse pivot-row pricing pass — columns off the row's pattern are
     untouched (their row entry is a structural zero);
   - the leaving column re-enters the nonbasic set with its exact update
     d_leaving' = lshift - d * (row . A_leaving): its cached entry went
     stale while basic, and [lshift] carries the change in its own cost on
     leaving — zero in phase 2 (a variable keeps its objective cost), but
     in phase 1 a violated basic leaving at its bound sheds its +-1
     violation gradient, which shifts its reduced cost by the negated
     pre-pivot cost;
   - when [fold_g] carries the entering column's reference weight, the
     Forrest-Goldfarb Devex update w_j <- max(w_j, g * (row . A_j)^2)
     rides the same pass.
   [upd_dual] is false on pivots that invalidated the caches (a phase-1
   step that moved a bystander basic across a violation boundary), where
   only the weight fold runs.  Must run after the factorization has
   absorbed the pivot. *)
let update_prices_after_pivot st ~row ~q ~leaving ~d ~lshift ~upd_dual ~fold_g =
  let brow = Basis.btran_unit_sparse st.fac row in
  if upd_dual && d <> 0.0 then begin
    let y = st.dual in
    for u = 0 to brow.Basis.Svec.n - 1 do
      let k = brow.Basis.Svec.idx.(u) in
      y.(k) <- y.(k) +. (d *. brow.Basis.Svec.vals.(k))
    done
  end;
  let upd_dvec = upd_dual && st.dvec_valid in
  let dofold = match fold_g with Some _ -> true | None -> false in
  if upd_dvec || dofold then begin
    let np = price_row st brow in
    let stamp = st.pstamp in
    let g = match fold_g with Some g -> g | None -> 0.0 in
    let dvec = st.dvec and prod = st.prod and pat = st.prod_pat in
    for u = 0 to np - 1 do
      let jj = pat.(u) in
      (* basic columns: reduced costs are rebuilt on leaving (below) and
         Devex freezes their weights until they leave *)
      if st.status.(jj) <> Basic then begin
        let a = prod.(jj) in
        if upd_dvec && d <> 0.0 then begin
          dvec.(jj) <- dvec.(jj) -. (d *. a);
          (* the moved reduced cost may have made jj an improving candidate *)
          clist_add st jj
        end;
        if dofold then begin
          let w' = g *. a *. a in
          if w' > st.devex_w.(jj) then st.devex_w.(jj) <- w'
        end
      end
    done;
    if upd_dvec then begin
      dvec.(leaving) <-
        lshift
        -. (if st.pmark.(leaving) = stamp then d *. prod.(leaving) else 0.0);
      dvec.(q) <- 0.0;
      clist_add st leaving
    end
  end

(* Entering-column choice.  Both regimes read the cached reduced-cost
   vector — no column is ever dotted against the duals here:
   - Bland's rule (anti-cycling): lowest-index improving column, full scan;
   - Devex: score d^2 / w_j under the approximate steepest-edge weights
     (maintained eagerly by the pivot epilogue, see
     [update_prices_after_pivot]).  Both phases scan the incrementally
     maintained candidate list — typically a small fraction of ntotal —
     pruning entries that stopped improving as it goes; an empty scan means
     dual feasibility exactly because the list provably contains every
     improving column.  The list is rebuilt by a full scan whenever the
     reduced-cost cache is (see [ensure_prices]). *)
let choose_entering st ~phase1 =
  ensure_prices st ~phase1;
  let dvec = st.dvec in
  if st.bland then begin
    let rec scan j =
      if j >= st.ntotal then None
      else if st.status.(j) = Basic then scan (j + 1)
      else
        let d = dvec.(j) in
        match entering_direction st ~d j with
        | Some dir -> Some (j, dir, d)
        | None -> scan (j + 1)
    in
    scan 0
  end
  else begin
    if not st.clist_valid then rebuild_clist st;
    let nvars = st.std.Model.nvars and cp = st.std.Model.col_ptr in
    let nnz_of j = if j < nvars then cp.(j + 1) - cp.(j) else 1 in
    let band = devex_sparsity_band in
    let best = ref None and best_score = ref 0.0 and best_nnz = ref max_int in
    let kept = ref 0 in
    for u = 0 to st.clist_n - 1 do
      let j = st.clist.(u) in
      let d = dvec.(j) in
      match entering_direction st ~d j with
      | Some dir ->
        st.clist.(!kept) <- j;
        incr kept;
        let score = d *. d /. st.devex_w.(j) in
        let nz = nnz_of j in
        let better =
          score > !best_score *. band
          || (score *. band > !best_score && nz < !best_nnz)
        in
        if better then begin
          best_score := Float.max score !best_score;
          best_nnz := nz;
          best := Some (j, dir, d)
        end
      | None ->
        (* prune: unmark so the column can re-enter when its reduced cost
           moves again (generation 0 is never current) *)
        st.cl_mark.(j) <- 0
    done;
    st.clist_n <- !kept;
    !best
  end

(* -------------------------------------------------------------------- *)
(* Ratio test                                                            *)

type block =
  | No_block
  | Entering_flip of float
  | Leaving of { row : int; step : float; bound : col_status }

(* In phase 1 an infeasible basic variable only blocks when it reaches the
   bound it violates (at which point it leaves the basis feasible); moving
   away from feasibility never blocks because the pricing step already
   accounted for that gradient. *)
let ratio_test st (alpha : Basis.Svec.t) ~dir ~phase1 j =
  let eps = pivot_tol in
  let t_enter =
    match st.status.(j) with
    | Nb_free -> infinity
    | _ ->
      let range = st.ub.(j) -. st.lb.(j) in
      if Float.is_finite range then range else infinity
  in
  let best_step = ref t_enter and best_row = ref (-1) and best_bound = ref At_lower in
  let best_pivot = ref 0.0 in
  (* The pattern is sorted ascending, so candidates are met in the same row
     order as the dense 0..m-1 scan; rows outside the pattern hold exact
     zeros, which |a| > eps rejected anyway — tie-breaking is unchanged. *)
  for u = 0 to alpha.Basis.Svec.n - 1 do
    let i = alpha.Basis.Svec.idx.(u) in
    let a = alpha.Basis.Svec.vals.(i) in
    if Float.abs a > eps then begin
      let b = st.basis.(i) in
      let delta = -.dir *. a in
      let x = st.xval.(b) in
      let lo = st.lb.(b) and hi = st.ub.(b) in
      let candidate =
        if phase1 && x < lo -. feas_tol then
          (* below its lower bound: blocks only when climbing back to it *)
          (if delta > eps then Some ((lo -. x) /. delta, At_lower) else None)
        else if phase1 && x > hi +. feas_tol then
          (if delta < -.eps then Some ((hi -. x) /. delta, At_upper) else None)
        else if delta > eps then
          (if Float.is_finite hi then Some ((hi -. x) /. delta, At_upper) else None)
        else if Float.is_finite lo then Some ((lo -. x) /. delta, At_lower)
        else None
      in
      match candidate with
      | None -> ()
      | Some (step, bound) ->
        let step = max 0.0 step in
        (* Prefer strictly smaller steps; on (near-)ties keep the row with
           the largest pivot magnitude for numerical stability. *)
        let better =
          if !best_row < 0 then step <= !best_step
          else if step < !best_step -. 1e-9 then true
          else if step <= !best_step +. 1e-9 then Float.abs a > !best_pivot
          else false
        in
        if better then begin
          best_step := min step !best_step;
          best_row := i;
          best_bound := bound;
          best_pivot := Float.abs a
        end
    end
  done;
  if !best_row >= 0 then Leaving { row = !best_row; step = !best_step; bound = !best_bound }
  else if Float.is_finite t_enter then Entering_flip t_enter
  else No_block

(* -------------------------------------------------------------------- *)
(* Setup (forward-declared pieces used by pivot application)             *)

(* Nonbasic resting point for column [j] given a preferred bound: fall back
   to whichever bound is finite (closest to zero, like a cold start) when
   the preferred one is not. *)
let set_nonbasic st j preferred =
  let lo = st.lb.(j) and hi = st.ub.(j) in
  let at_lower () = st.status.(j) <- At_lower; st.xval.(j) <- lo in
  let at_upper () = st.status.(j) <- At_upper; st.xval.(j) <- hi in
  let free () = st.status.(j) <- Nb_free; st.xval.(j) <- 0.0 in
  match preferred with
  | At_lower when Float.is_finite lo -> at_lower ()
  | At_upper when Float.is_finite hi -> at_upper ()
  | _ ->
    if Float.is_finite lo && (Float.abs lo <= Float.abs hi || not (Float.is_finite hi)) then
      at_lower ()
    else if Float.is_finite hi then at_upper ()
    else free ()

(* All-slack starting basis: every structural column nonbasic at its best
   bound, identity basis factorization. *)
let set_cold st =
  for j = 0 to st.std.nvars - 1 do
    set_nonbasic st j At_lower
  done;
  for i = 0 to st.m - 1 do
    st.basis.(i) <- st.std.nvars + i;
    st.status.(st.std.nvars + i) <- Basic
  done;
  Basis.set_identity st.fac;
  st.dual_valid <- false;
  st.dvec_valid <- false;
  (* the basis jumped wholesale; any accumulated pricing state is stale *)
  reset_devex st;
  recompute_basics st

(* -------------------------------------------------------------------- *)
(* Pivot application                                                     *)

let apply_move st (alpha : Basis.Svec.t) ~dir ~step j =
  if step <> 0.0 then begin
    st.basics_fresh <- false;
    st.xval.(j) <- st.xval.(j) +. (dir *. step);
    let infeasible = ref st.infeasible in
    for u = 0 to alpha.Basis.Svec.n - 1 do
      let i = alpha.Basis.Svec.idx.(u) in
      let a = alpha.Basis.Svec.vals.(i) in
      if a <> 0.0 then begin
        let b = st.basis.(i) in
        let before = violates st b in
        st.xval.(b) <- st.xval.(b) -. (a *. dir *. step);
        infeasible := !infeasible + violates st b - before
      end
    done;
    st.infeasible <- !infeasible
  end

(* Would this pivot's basic-variable movement change any phase-1 cost
   besides the pivot row's?  The phase-1 cost vector is the violation
   gradient of the basic variables (see [phase1_cost]); the incremental
   price update absorbs the pivot-row cost swap exactly — the same algebra
   as phase 2's objective swap — but knows nothing about other rows.  The
   phase-1 ratio test stops at the first blocking boundary, so in the
   common case no other basic crosses a violation boundary and the price
   caches survive the pivot; this detects the exceptions (degenerate ties
   parking a second basic exactly on its bound, sub-[pivot_tol] entries
   drifting across one) so the caller can fall back to the rebuild.  Must
   run before [apply_move] — it reads the pre-move basic values.  Pass
   [row = -1] for a bound flip, where every pattern row is a bystander. *)
let phase1_costs_shift st (alpha : Basis.Svec.t) ~row ~dir ~step =
  let shifted = ref false in
  let u = ref 0 in
  while (not !shifted) && !u < alpha.Basis.Svec.n do
    let i = alpha.Basis.Svec.idx.(!u) in
    incr u;
    if i <> row then begin
      let a = alpha.Basis.Svec.vals.(i) in
      if a <> 0.0 then begin
        let b = st.basis.(i) in
        let x0 = st.xval.(b) in
        let x1 = x0 -. (a *. dir *. step) in
        let lo = st.lb.(b) -. feas_tol and hi = st.ub.(b) +. feas_tol in
        let cat x = if x < lo then -1 else if x > hi then 1 else 0 in
        if cat x0 <> cat x1 then shifted := true
      end
    end
  done;
  !shifted

(* Absorb the basis change into the factorization.  When the update is
   refused (pivot too small, update budget exhausted) refactorize from the
   already-updated basis columns; if even that fails the basis is
   numerically hopeless and the solve restarts cold — correctness over
   speed on a path that never fires in practice. *)
let absorb_pivot st (alpha : Basis.Svec.t) ~row =
  if not (Basis.update_sparse st.fac ~alpha ~row) then begin
    match refactor st with
    | () -> recompute_basics st
    | exception Basis.Singular -> set_cold st
  end

let pivot st alpha ~row j ~bound =
  let leaving = st.basis.(row) in
  st.basics_fresh <- false;
  (* the row's basic variable changes from [leaving] to [j] *)
  st.infeasible <- st.infeasible - violates st leaving + violates st j;
  st.status.(leaving) <- bound;
  (* pin the leaving variable exactly on its bound to avoid drift *)
  (st.xval.(leaving) <-
     match bound with
     | At_lower -> st.lb.(leaving)
     | At_upper -> st.ub.(leaving)
     | Basic | Nb_free -> st.xval.(leaving));
  st.basis.(row) <- j;
  st.status.(j) <- Basic;
  absorb_pivot st alpha ~row

(* -------------------------------------------------------------------- *)
(* Warm starts                                                           *)

(* Restart from a caller-supplied basis: validate, install statuses and
   nonbasic resting points (normalized against the possibly-tightened
   bounds), then either adopt the supplied factorization (the tree root
   takes the root LP's factors this way) or refactorize.  Returns false —
   leaving the caller to fall back to a cold start — on any structural
   mismatch or a singular basis; the basis is never repaired.

   A [hot] restart (see [initial_state]) finds the snapshot's basis,
   statuses and factors already in place: only the nonbasic columns move
   to the new bounds, and the basic values follow — unless no nonbasic
   value moved and they are already what [recompute_basics] would
   compute (a branch on a basic variable moves none), when only the
   violation count is redone under the new bounds. *)
let try_warm st ~hot (wb : warm_basis) =
  if hot then begin
    let moved = ref false in
    for j = 0 to st.ntotal - 1 do
      if st.status.(j) <> Basic then begin
        let x = st.xval.(j) in
        set_nonbasic st j wb.wstatus.(j);
        if st.xval.(j) <> x then moved := true
      end
    done;
    if !moved || not st.basics_fresh then recompute_basics st else count_infeasible st;
    true
  end
  else if Array.length wb.wcols <> st.m || Array.length wb.wstatus <> st.ntotal then false
  else begin
    let in_basis = Array.make st.ntotal false in
    let ok = ref true in
    Array.iter
      (fun c ->
        if c < 0 || c >= st.ntotal || in_basis.(c) then ok := false else in_basis.(c) <- true)
      wb.wcols;
    if not !ok then false
    else begin
      Array.blit wb.wcols 0 st.basis 0 st.m;
      for j = 0 to st.ntotal - 1 do
        if in_basis.(j) then st.status.(j) <- Basic
        else set_nonbasic st j wb.wstatus.(j)
      done;
      let adopted =
        match wb.wfac with
        | Some f when Basis.dim f = st.m ->
          st.fac <- Basis.copy f;
          true
        | Some _ | None -> false
      in
      match if not adopted then refactor st with
      | () ->
        st.dual_valid <- false;
        st.dvec_valid <- false;
        recompute_basics st;
        true
      | exception Basis.Singular -> false
    end
  end

(* Triangular crash from a point [x0] (Bixby, ORSA J. Computing 4(3),
   1992); see the interface for the rules.  Closing every row of a placed
   column means no later pivot row holds an earlier pivot column's entry,
   so the basis is triangular.  Candidates touching the fewest tight rows
   go first (then fewest nonzeros, then index): columns whose only tight
   row is shared, such as the correlated-failure buffer maxima, would
   otherwise find it taken by wider columns and rest at a bound, pushing
   the basics that depend on them out of bounds. *)
let crash (std : Model.std) x0 =
  let n = std.nvars and m = std.nrows in
  let p = std.col_ptr and ind = std.col_ind and vl = std.col_val in
  let act = Array.make m 0.0 in
  for j = 0 to n - 1 do
    let v = x0.(j) in
    if v <> 0.0 then
      for k = p.(j) to p.(j + 1) - 1 do
        act.(ind.(k)) <- act.(ind.(k)) +. (vl.(k) *. v)
      done
  done;
  let tight =
    Array.init m (fun i ->
        match std.row_sense.(i) with
        | Model.Eq -> true
        | Model.Le | Model.Ge ->
          Float.abs (std.rhs.(i) -. act.(i)) <= feas_tol *. (1.0 +. Float.abs std.rhs.(i)))
  in
  let wstatus = Array.make (n + m) Basic in
  let nearer j =
    let lo = std.lb.(j) and hi = std.ub.(j) in
    if Float.is_finite lo && (x0.(j) -. lo <= hi -. x0.(j)) then At_lower
    else if Float.is_finite hi then At_upper
    else Nb_free
  in
  let cands = ref [] in
  for j = n - 1 downto 0 do
    let v = x0.(j) in
    if v <= std.lb.(j) +. feas_tol then wstatus.(j) <- At_lower
    else if v >= std.ub.(j) -. feas_tol then wstatus.(j) <- At_upper
    else begin
      let touched = ref 0 in
      for k = p.(j) to p.(j + 1) - 1 do
        if tight.(ind.(k)) then incr touched
      done;
      cands := (!touched, p.(j + 1) - p.(j), j) :: !cands
    end
  done;
  let wcols = Array.init m (fun i -> n + i) in
  let closed = Array.make m false in
  List.iter
    (fun (_, _, j) ->
      let colmax = ref 0.0 in
      for k = p.(j) to p.(j + 1) - 1 do
        colmax := Float.max !colmax (Float.abs vl.(k))
      done;
      let best = ref (-1) and best_a = ref (Float.max pivot_tol (0.1 *. !colmax)) in
      for k = p.(j) to p.(j + 1) - 1 do
        let i = ind.(k) and a = Float.abs vl.(k) in
        if tight.(i) && (not closed.(i)) && a >= !best_a && (!best < 0 || a > !best_a) then begin
          best := i;
          best_a := a
        end
      done;
      if !best < 0 then wstatus.(j) <- nearer j
      else begin
        let r = !best in
        wcols.(r) <- j;
        (* the displaced slack rests on its only finite bound, 0 *)
        wstatus.(n + r) <- (if std.row_sense.(r) = Model.Ge then At_upper else At_lower);
        for k = p.(j) to p.(j + 1) - 1 do
          closed.(ind.(k)) <- true
        done
      end)
    (List.sort compare !cands);
  { wcols; wstatus; wfac = None }

(* Reusable per-solve scratch: the previous solve's state, whose O(m) and
   O(ntotal) arrays and basis factorization the next solve takes over, so a
   caller that solves many same-shaped LPs (the branch-and-bound node loop)
   allocates them once instead of per solve.  [last] is the snapshot the
   previous solve returned, when it ended [Optimal]: the state still holds
   exactly that basis, its statuses and its factors, so a solve warm-started
   from that very snapshot on the same model restarts in place (hot)
   instead of refactorizing.  A previous state of another shape is dropped
   and the arrays allocated afresh, so one workspace can serve
   heterogeneous solves at the cost of losing reuse across shape
   changes. *)
type workspace = { mutable prev : state option; mutable last : warm_basis option }

let create_workspace () = { prev = None; last = None }

let initial_state ?lb_override ?ub_override ?basis ?ws ~degen_limit ~trace (std : Model.std) =
  let m = std.nrows in
  let nvars = std.nvars in
  let ntotal = nvars + m in
  let prev =
    match ws with
    | Some { prev = Some p; _ } when p.m = m && p.ntotal = ntotal ->
      (* reused scratch: restore the invariants fresh arrays provide — the
         mark arrays unstamped (this solve's stamps restart at 1), Devex
         weights back to the unit framework.  prod and dvec need no reset:
         prod is garbage off-pattern by contract and dvec is rebuilt before
         its first read. *)
      Array.fill p.pmark 0 ntotal 0;
      Array.fill p.cl_mark 0 ntotal 0;
      Array.fill p.devex_w 0 ntotal 1.0;
      Some p
    | _ -> None
  in
  let hot =
    match (ws, basis, prev) with
    | Some { last = Some l; _ }, Some wb, Some p -> l == wb && p.std == std
    | _ -> false
  in
  (* the parent's prices are the ones a re-price would compute when they
     were computed on the factors the restart keeps: no update since the
     last refactorization (an optimal solve confirms on fresh factors; a
     basis found singular at the confirmation keeps its update chain) *)
  let keep_prices =
    match prev with
    | Some p when hot ->
      p.dual_valid && p.dvec_valid && (not p.dual_phase1)
      && Basis.updates_since_refactor p.fac = 0
    | _ -> false
  in
  (* the previous state's array, or a fresh one of [len] copies of [v] *)
  let take field len v = match prev with Some p -> field p | None -> Array.make len v in
  let lb = take (fun p -> p.lb) ntotal 0.0 and ub = take (fun p -> p.ub) ntotal 0.0 in
  let slb = match lb_override with Some a -> a | None -> std.lb in
  let sub = match ub_override with Some a -> a | None -> std.ub in
  Array.blit slb 0 lb 0 nvars;
  Array.blit sub 0 ub 0 nvars;
  for i = 0 to m - 1 do
    (* Row a.x + s = rhs: Le rows get s in [0, inf), Ge rows s in (-inf, 0],
       Eq rows a fixed slack. *)
    let j = nvars + i in
    match std.row_sense.(i) with
    | Model.Le ->
      lb.(j) <- 0.0;
      ub.(j) <- infinity
    | Model.Ge ->
      lb.(j) <- neg_infinity;
      ub.(j) <- 0.0
    | Model.Eq ->
      lb.(j) <- 0.0;
      ub.(j) <- 0.0
  done;
  let obj = take (fun p -> p.obj) ntotal 0.0 in
  Array.blit std.obj 0 obj 0 nvars;
  Array.fill obj nvars m 0.0;
  let st =
    {
      std;
      m;
      ntotal;
      lb;
      ub;
      obj;
      status = take (fun p -> p.status) ntotal At_lower;
      xval = take (fun p -> p.xval) ntotal 0.0;
      basics_fresh = (match prev with Some p when hot -> p.basics_fresh | _ -> false);
      (* every path below sets the basis and the statuses: a warm start
         from the snapshot, a cold one to the slacks *)
      basis = take (fun p -> p.basis) m 0;
      fac = (match prev with Some p -> p.fac | None -> Basis.create ~m);
      bland = false;
      degenerate_run = 0;
      degen_limit;
      iterations = 0;
      infeasible = 0;
      dual_pivots = 0;
      bland_pivots = 0;
      dual = take (fun p -> p.dual) m 0.0;
      dual_valid = keep_prices;
      dual_phase1 = false;
      cb = take (fun p -> p.cb) m 0.0;
      rwork = take (fun p -> p.rwork) m 0.0;
      dvec = take (fun p -> p.dvec) ntotal 0.0;
      dvec_valid = keep_prices;
      prod = take (fun p -> p.prod) ntotal 0.0;
      prod_pat = take (fun p -> p.prod_pat) ntotal 0;
      pmark = take (fun p -> p.pmark) ntotal 0;
      pstamp = 0;
      clist = take (fun p -> p.clist) ntotal 0;
      clist_n = 0;
      cl_mark = take (fun p -> p.cl_mark) ntotal 0;
      cl_gen = 0;
      clist_valid = false;
      devex_w = take (fun p -> p.devex_w) ntotal 1.0;
      devex_strikes = 0;
      devex_gen = 0;
      trace;
    }
  in
  Option.iter
    (fun w ->
      w.prev <- Some st;
      w.last <- None)
    ws;
  let warmed = match basis with Some wb -> try_warm st ~hot wb | None -> false in
  Basis.reset_stats st.fac;
  if not warmed then set_cold st;
  (st, warmed)

let objective_value st = Model.objective_value st.std st.xval

let extract st = Array.sub st.xval 0 st.std.nvars

(* The snapshot must own its arrays: the state's are workspace-backed and
   the next solve through the same workspace would scribble over them.  For
   the same reason a workspace keeps its factors to itself; a solve without
   one hands them over. *)
let final_basis ?ws st =
  let b =
    {
      wcols = Array.copy st.basis;
      wstatus = Array.copy st.status;
      wfac = (match ws with Some _ -> None | None -> Some st.fac);
    }
  in
  Option.iter (fun w -> w.last <- Some b) ws;
  b

let kernel_stats_of st =
  let s = Basis.solve_stats st.fac in
  let avg calls nnz = if calls = 0 then 0.0 else float_of_int nnz /. float_of_int calls in
  {
    avg_ftran_nnz = avg s.Basis.ftran_calls s.Basis.ftran_nnz;
    avg_btran_nnz = avg s.Basis.btran_calls s.Basis.btran_nnz;
  }

(* -------------------------------------------------------------------- *)
(* Dual simplex                                                          *)

(* A warm-started basis whose bounds were tightened (the branch-and-bound
   child pattern) is primal infeasible but still dual feasible: the
   reduced costs did not move.  This check gates the dual phase; a basis
   that fails it (e.g. a stale snapshot under a different objective) falls
   through to the ordinary primal phase 1. *)
let dual_feasible_now st =
  ensure_prices st ~phase1:false;
  let tol = 10.0 *. dual_tol in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < st.ntotal do
    let jj = !j in
    (if st.status.(jj) <> Basic && st.ub.(jj) -. st.lb.(jj) > 0.0 then
       let d = st.dvec.(jj) in
       match st.status.(jj) with
       | At_lower -> if d < -.tol then ok := false
       | At_upper -> if d > tol then ok := false
       | Nb_free -> if Float.abs d > tol then ok := false
       | Basic -> ());
    incr j
  done;
  !ok

(* Dual simplex re-optimization: drive out primal infeasibilities while the
   reduced costs stay dual feasible.  Each iteration picks the most
   violated basic variable as the leaving row, prices the pivot row
   (rho = e_r^T B^-1 via sparse BTRAN, then one row-major pass over the
   columns the row touches for both the row entries and the reduced
   costs), runs the textbook dual ratio test, and pivots.  On any numerical
   doubt — no eligible column, a pivot-row / FTRAN disagreement, a long
   degenerate stall — it simply stops: the primal loop behind it is fully
   general and finishes the solve, so the dual phase is purely an
   accelerator. *)
let dual_phase st ~max_iters =
  let m = st.m in
  let budget = ref (200 + (2 * m)) in
  let stalled = ref 0 in
  let running = ref true in
  while !running && st.iterations < max_iters && !budget > 0 do
    decr budget;
    if Basis.should_refactorize st.fac then begin
      match refactor st with
      | () -> recompute_basics st
      | exception Basis.Singular -> running := false
    end;
    if !running then begin
      (* leaving row: largest bound violation *)
      let r = ref (-1) and worst = ref 0.0 in
      for i = 0 to m - 1 do
        let v = infeasibility_of st st.basis.(i) in
        if v > !worst then begin
          worst := v;
          r := i
        end
      done;
      if !r < 0 then running := false (* primal feasible: the dual phase is done *)
      else begin
        let r = !r in
        let b = st.basis.(r) in
        let xb = st.xval.(b) in
        let v =
          if xb < st.lb.(b) -. feas_tol then xb -. st.lb.(b)
          else xb -. st.ub.(b)
        in
        ensure_prices st ~phase1:false;
        let rho = Basis.btran_unit_sparse st.fac r in
        (* Dual ratio test over the priced pivot row: only the columns the
           row touches can be breakpoints (everything else has a
           structurally zero row entry), and their reduced costs come from
           the maintained cache.  The entering column has the least ratio
           |d_j| / |a_j|; ties go to the larger |a_j| (numerical
           stability), then to the lower column index, so the choice does
           not depend on the order [price_row] visits the row. *)
        let np = price_row st rho in
        let q = ref (-1) and dq = ref 0.0 and rq = ref 0.0 and aq = ref 0.0 in
        for u = 0 to np - 1 do
          let j = st.prod_pat.(u) in
          if st.status.(j) <> Basic && st.ub.(j) -. st.lb.(j) > 0.0 then begin
            let a = st.prod.(j) in
            if Float.abs a > pivot_tol then begin
              let eligible =
                match st.status.(j) with
                | At_lower -> v *. a > 0.0 (* entering may only increase *)
                | At_upper -> v *. a < 0.0 (* entering may only decrease *)
                | Nb_free -> true
                | Basic -> false
              in
              if eligible then begin
                let d = st.dvec.(j) in
                let aa = Float.abs a in
                let ratio = Float.abs d /. aa in
                if
                  !q < 0 || ratio < !rq
                  || (ratio = !rq && (aa > !aq || (aa = !aq && j < !q)))
                then begin
                  q := j;
                  dq := d;
                  rq := ratio;
                  aq := aa
                end
              end
            end
          end
        done;
        if !q < 0 then running := false
          (* dual ray (primal infeasible) or numerics: let the primal
             phase 1 deliver the verdict *)
        else begin
          let q = !q in
          let alpha = ftran st q in
          let arq = alpha.Basis.Svec.vals.(r) in
          if Float.abs arq < pivot_tol then begin
            (* the priced row entry and the FTRAN'd column disagree:
               refresh the factorization, then give the primal path the
               problem if it keeps happening *)
            (try refactor st with Basis.Singular -> ());
            recompute_basics st;
            incr stalled;
            if !stalled > 3 then running := false
          end
          else begin
            let step = v /. arq in
            st.basics_fresh <- false;
            st.xval.(q) <- st.xval.(q) +. step;
            for u = 0 to alpha.Basis.Svec.n - 1 do
              let i = alpha.Basis.Svec.idx.(u) in
              let a = alpha.Basis.Svec.vals.(i) in
              if a <> 0.0 then begin
                let bi = st.basis.(i) in
                st.xval.(bi) <- st.xval.(bi) -. (a *. step)
              end
            done;
            (* the leaving variable lands exactly on its violated bound *)
            let bound = if v < 0.0 then At_lower else At_upper in
            st.status.(b) <- bound;
            (st.xval.(b) <-
               match bound with At_lower -> st.lb.(b) | _ -> st.ub.(b));
            st.basis.(r) <- q;
            st.status.(q) <- Basic;
            absorb_pivot st alpha ~row:r;
            st.iterations <- st.iterations + 1;
            st.dual_pivots <- st.dual_pivots + 1;
            if st.dual_valid then
              update_prices_after_pivot st ~row:r ~q ~leaving:b ~d:!dq
                ~lshift:0.0 ~upd_dual:true ~fold_g:None;
            if !rq <= dual_tol then begin
              (* dual-degenerate pivot: no dual objective progress *)
              incr stalled;
              if !stalled > 100 then running := false
            end
            else stalled := 0
          end
        end
      end
    end
  done

(* -------------------------------------------------------------------- *)
(* Driver                                                                *)

(* Trivial case: no constraints means each variable sits at whichever bound
   minimizes its objective coefficient. *)
let solve_unconstrained std lb ub =
  let n = (std : Model.std).nvars in
  let x = Array.make n 0.0 in
  let unbounded = ref false in
  for j = 0 to n - 1 do
    let c = std.obj.(j) in
    if c > 0.0 then
      if Float.is_finite lb.(j) then x.(j) <- lb.(j) else unbounded := true
    else if c < 0.0 then
      if Float.is_finite ub.(j) then x.(j) <- ub.(j) else unbounded := true
    else if Float.is_finite lb.(j) && lb.(j) > 0.0 then x.(j) <- lb.(j)
    else if Float.is_finite ub.(j) && ub.(j) < 0.0 then x.(j) <- ub.(j)
  done;
  if !unbounded then Unbounded
  else begin
    Optimal
      {
        x;
        obj = Model.objective_value std x;
        iterations = 0;
        dual_iterations = 0;
        bland_iterations = 0;
        duals = [||];
        basis = { wcols = [||]; wstatus = [||]; wfac = None };
        kstats = { avg_ftran_nnz = 0.0; avg_btran_nnz = 0.0 };
      }
  end

let solve ?(degen_limit = 100) ?trace ?ws ?basis ?lb ?ub (std : Model.std) =
  (* A variable fixed-range check also covers per-node bound conflicts. *)
  let lbs = match lb with Some a -> a | None -> std.lb in
  let ubs = match ub with Some a -> a | None -> std.ub in
  let conflict = ref false in
  for j = 0 to std.nvars - 1 do
    if lbs.(j) > ubs.(j) +. feas_tol then conflict := true
  done;
  if !conflict then Infeasible { infeasibility = 1 }
  else if std.nrows = 0 then solve_unconstrained std lbs ubs
  else begin
    let st, warmed = initial_state ?lb_override:lb ?ub_override:ub ?basis ?ws ~degen_limit ~trace std in
    let max_iters = 20000 + (60 * (st.m + st.ntotal)) in
    (* Dual re-optimization: a warm basis whose bounds were tightened is
       typically primal infeasible but still dual feasible, and a handful
       of dual pivots restores optimality — the branch-and-bound child
       restart pattern.  Cold starts and dual-infeasible bases skip
       straight to the primal phases. *)
    if warmed && st.infeasible > 0 && dual_feasible_now st then begin
      dual_phase st ~max_iters;
      (* the dual phase moves basic values outside [apply_move] *)
      count_infeasible st
    end;
    let result = ref None in
    while !result = None && st.iterations < max_iters do
      st.iterations <- st.iterations + 1;
      if Basis.should_refactorize st.fac then begin
        (try refactor st with Basis.Singular -> ());
        recompute_basics st
      end;
      let infeas_count = st.infeasible in
      let phase1 = infeas_count > 0 in
      match choose_entering st ~phase1 with
      | None ->
        if phase1 then begin
          (* Confirm infeasibility on a freshly factorized basis. *)
          if Basis.updates_since_refactor st.fac > 0 then begin
            match refactor st with
            | () ->
              recompute_basics st;
              if st.infeasible > 0 then
                result := Some (Infeasible { infeasibility = st.infeasible })
            | exception Basis.Singular ->
              result := Some (Infeasible { infeasibility = infeas_count })
          end
          else result := Some (Infeasible { infeasibility = infeas_count })
        end
        else begin
          (* Confirm optimality on a fresh factorization. *)
          let confirmed =
            if Basis.updates_since_refactor st.fac = 0 then true
            else
              match refactor st with
              | () ->
                recompute_basics st;
                false (* re-price on the fresh factors *)
              | exception Basis.Singular -> true
          in
          if confirmed then begin
            (* the pricing pass that found no entering column left the
               cached duals valid; with no update since the refactorization
               they were computed on these very factors.  A basis found
               singular at the confirmation keeps its update chain, and its
               cache may have been updated incrementally along it. *)
            let duals =
              if Basis.updates_since_refactor st.fac = 0 then Array.copy st.dual
              else begin
                let d = Array.make st.m 0.0 in
                compute_duals_into st ~phase1:false d;
                d
              end
            in
            result :=
              Some
                (Optimal
                   {
                     x = extract st;
                     obj = objective_value st;
                     iterations = st.iterations;
                     dual_iterations = st.dual_pivots;
                     bland_iterations = st.bland_pivots;
                     duals;
                     basis = final_basis ?ws st;
                     kstats = kernel_stats_of st;
                   })
          end
        end
      | Some (j, dir, d) -> begin
        let alpha = ftran st j in
        match ratio_test st alpha ~dir ~phase1 j with
        | No_block ->
          if phase1 then begin
            (* Numerically suspect: refactor and retry; a persistent miss is
               reported as infeasible rather than looping forever. *)
            let fresh = Basis.updates_since_refactor st.fac = 0 in
            (try refactor st with Basis.Singular -> ());
            recompute_basics st;
            if fresh then result := Some (Infeasible { infeasibility = infeas_count })
          end
          else result := Some Unbounded
        | Entering_flip step ->
          (* a bound flip keeps the basis, the duals and the reduced costs —
             unless a phase-1 flip marched some basic across a violation
             boundary, shifting the phase-1 cost vector *)
          let p1_shift =
            phase1
            && ((not (st.dual_valid && st.dvec_valid))
               || phase1_costs_shift st alpha ~row:(-1) ~dir ~step)
          in
          apply_move st alpha ~dir ~step j;
          (st.status.(j) <-
             match st.status.(j) with
             | At_lower -> At_upper
             | At_upper -> At_lower
             | s -> s);
          if p1_shift then begin
            st.dual_valid <- false;
            st.dvec_valid <- false
          end
          else
            (* the flip changed the column's status, hence its candidacy
               test; re-admit it if it still improves (list pruning would
               otherwise drop it next scan) *)
            clist_add st j
        | Leaving { row; step; bound } ->
          let was_bland = st.bland in
          if step <= feas_tol then begin
            st.degenerate_run <- st.degenerate_run + 1;
            if st.degenerate_run > st.degen_limit && not st.bland then begin
              st.bland <- true;
              (* Bland's rule ignores the weights; restart the reference
                 framework from whatever basis Bland mode leaves us in. *)
              reset_devex st
            end
          end
          else begin
            st.degenerate_run <- 0;
            st.bland <- false
          end;
          (* Phase-1 cache survival: decided against the pre-move basic
             values.  A phase-1 pivot whose bystander basics all keep their
             violation category is algebraically a phase-2 pivot with a
             cost swap in the pivot row, and the price caches ride the
             standard incremental update; [lshift] carries the leaving
             variable's shed violation gradient (see
             [update_prices_after_pivot]).  Only the exceptional steps pay
             the full rebuild. *)
          let p1_shift =
            phase1
            && ((not (st.dual_valid && st.dvec_valid))
               || phase1_costs_shift st alpha ~row ~dir ~step)
          in
          let lshift = if phase1 then -.(phase1_cost st row) else 0.0 in
          if was_bland then st.bland_pivots <- st.bland_pivots + 1;
          apply_move st alpha ~dir ~step j;
          (* Devex bookkeeping needs pre-pivot data: the entering column's
             stored weight, the pivot element, and the leaving variable. *)
          let devex_live = not st.bland in
          let gen0 = st.devex_gen in
          let entering_w =
            if devex_live then Float.max 1.0 st.devex_w.(j) else 1.0
          in
          let leaving = st.basis.(row) in
          let arq = alpha.Basis.Svec.vals.(row) in
          pivot st alpha ~row j ~bound;
          let need_dual = st.dual_valid && not p1_shift in
          if p1_shift then begin
            st.dual_valid <- false;
            st.dvec_valid <- false
          end;
          (* [pivot] may have fallen back to a cold restart (refused update
             and singular refactorization), which resets the framework —
             stale Devex bookkeeping must not be applied on top. *)
          let devex_live = devex_live && st.devex_gen = gen0 in
          if devex_live then begin
            (* Devex accuracy: the exact steepest-edge measure of the
               entering column, 1 + ||alpha||², is free from the FTRAN (the
               svec is still live — the pivot only ran the factor update,
               which does not touch it); the stored weight overshooting it
               means the framework has drifted. *)
            let se = ref 1.0 in
            for u = 0 to alpha.Basis.Svec.n - 1 do
              let a = alpha.Basis.Svec.vals.(alpha.Basis.Svec.idx.(u)) in
              se := !se +. (a *. a)
            done;
            if entering_w > devex_weight_slack *. !se then begin
              st.devex_strikes <- st.devex_strikes + 1;
              if st.devex_strikes > devex_max_strikes then reset_devex st
            end;
            (* Forrest–Goldfarb: the leaving variable re-enters the
               nonbasic set with weight max(1, ĝ/α_rq²); the other
               nonbasic weights fold in during the pivot-row pricing pass
               below. *)
            if st.devex_gen = gen0 then
              st.devex_w.(leaving) <- Float.max 1.0 (entering_w /. (arq *. arq))
          end;
          let devex_live = devex_live && st.devex_gen = gen0 in
          (* One sparse BTRAN + one row-major pricing pass serve the
             incremental dual update, the reduced-cost update, and the
             Devex weight fold. *)
          if need_dual || devex_live then
            update_prices_after_pivot st ~row ~q:j ~leaving ~d ~lshift
              ~upd_dual:need_dual
              ~fold_g:(if devex_live then Some entering_w else None);
          (match st.trace with
          | Some f ->
            let mw = ref infinity in
            for k = 0 to st.ntotal - 1 do
              if st.devex_w.(k) < !mw then mw := st.devex_w.(k)
            done;
            f ~iteration:st.iterations ~min_devex_weight:!mw
          | None -> ())
      end
    done;
    match !result with
    | Some r -> r
    | None -> Iteration_limit { feasible = st.infeasible = 0; obj = objective_value st }
  end
