(** Bounded-variable simplex for linear programs in {!Model.std} form.

    The implementation is a revised simplex over a factorized basis
    ({!Basis}: sparse LU with Forrest–Tomlin updates):

    - slack columns are appended internally (one per row) so the working
      problem is [min c.x  s.t.  Ax + s = b] with bounds on every column;
    - infeasible starts are handled by a piecewise-linear phase 1 that
      minimizes the total bound violation of basic variables (no artificial
      columns are added);
    - pricing is Forrest–Goldfarb Devex approximate steepest-edge: each
      nonbasic column carries a reference-framework weight [w_j ≥ 1]
      approximating [‖B⁻¹A_j‖²] over a reference basis, and the entering
      column maximizes [d_j²/w_j].  Weights are updated from the pivot's
      FTRAN/BTRAN vectors (no extra column passes: the neighbour update is
      folded into the next pricing scan) and the framework is reset — all
      weights back to 1 — on a cold start, on entry to Bland mode, and when
      the accuracy estimate strikes out; refactorization keeps the weights,
      since it changes the factors, not the basis.  After a run of
      degenerate pivots the solver switches to Bland's rule, which
      guarantees termination;
    - the simplex multipliers are cached and updated incrementally after
      phase-2 pivots instead of being recomputed by a full BTRAN every
      iteration;
    - the basis is refactorized when the update chain exhausts its budget or
      accumulated pivot error crosses a threshold (see {!Basis}), and before
      declaring optimality, bounding numerical drift;
    - solves can be warm-started from the final basis of a previous solve of
      the same model with different bounds — this is how {!Branch_bound}
      restarts each child node from its parent's optimal basis — or from a
      triangular basis crashed from a known point ({!crash}); a restart
      from the snapshot a {!workspace}'s last solve returned runs in that
      solve's state, factors included (see {!workspace});
    - a warm-started basis that is still dual feasible (the branch-and-bound
      child pattern: parent-optimal basis, tightened bounds) is
      re-optimized by a dual simplex phase — typically a handful of pivots
      under the textbook dual ratio test (least [|d_j|/|a_j|] over the
      priced pivot row; ties to the larger [|a_j|], then the lower column
      index) — before the primal phases run; the dual phase bails out to
      the primal path on any numerical doubt, so it is purely an
      accelerator.  Cold starts never run it.

    Integrality markers in the input are ignored: this is the LP relaxation
    solver used by {!Branch_bound}. *)

type col_status = Basic | At_lower | At_upper | Nb_free
(** Where a column currently rests: basic, pinned at a bound, or free at
    zero. *)

type warm_basis = {
  wcols : int array;  (** [wcols.(i)] is the column basic in row [i] (slack
                          columns are [nvars + row]). *)
  wstatus : col_status array;
      (** One entry per column including slacks; nonbasic entries record
          which bound the column rests on. *)
  wfac : Basis.t option;
      (** The basis factorization matching [wcols], when available: a
          solve without a {!workspace} returns its factors here (the root
          LP hands them to the tree root this way); a solve through one
          returns [None], since the workspace keeps its factors and a later
          solve through it mutates them.  Supplying it lets a restart skip
          refactorization; it is adopted (copied, see {!Basis.copy}) when
          its dimension matches the model, otherwise the restart
          refactorizes from [wcols].  When present it must genuinely be the
          factorization of the [wcols] basis — it is not cross-checked. *)
}
(** A restartable snapshot of a simplex basis.  Obtained from
    {!result.Optimal} or built from a point by {!crash}, and fed back
    through [solve ~basis]; the solver
    validates the structural fields and silently falls back to a cold start
    on any mismatch, so a stale snapshot degrades performance, not
    correctness. *)

type kernel_stats = {
  avg_ftran_nnz : float;
      (** Mean nonzeros per sparse FTRAN result over the whole solve.  The
          hypersparse win is exactly this (and its BTRAN twin) staying far
          below the row count [m]. *)
  avg_btran_nnz : float;
}
(** Solve-kernel counters for one solve, reported by {!result.Optimal} and
    surfaced in the bench kernel rows. *)

type workspace
(** Reusable per-solve state: the previous solve's O(rows + columns)
    working arrays and its basis factorization, which the next solve takes
    over.  Pass the same workspace to consecutive [solve] calls on
    same-shaped models (the branch-and-bound node loop) to make the
    solver's own allocation per solve O(1) arrays instead of O(solve
    count × problem size); a dimension mismatch transparently reallocates.

    A solve whose [basis] is physically the snapshot the workspace's last
    solve returned [Optimal], on the same [Model.std], is a hot restart:
    it keeps that solve's basis, statuses and factors (the ones it
    confirmed optimality on) and its prices, moves only the nonbasic
    columns to the new bounds (recomputing the basic values only when a
    nonbasic value moved), and then runs the same dual and primal phases
    as any warm start.  It answers bit for bit as a restart from
    the snapshot without the workspace, which refactorizes [wcols].  Any
    other solve through the workspace ends that snapshot's claim.

    A workspace must not be shared across concurrent solves (one per
    domain). *)

val create_workspace : unit -> workspace
(** An empty workspace; arrays are sized on first use. *)

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
      (** [x] has one entry per structural variable; [obj] includes the
          model's objective offset; [duals] holds one simplex multiplier per
          row — the shadow price of the constraint at the optimum (zero for
          non-binding rows).  [iterations] counts every pivot;
          [dual_iterations] is the subset performed by the dual-simplex
          restart phase, and [bland_iterations] the primal subset taken
          under the Bland anti-cycling fallback (nonzero means the solve
          hit a degenerate stall).  [basis] is the final basis (with its
          factorization) for warm-starting related solves. *)
  | Infeasible of { infeasibility : int }
      (** Phase 1 converged with the given number of still-violated basic
          variables. *)
  | Unbounded
  | Iteration_limit of { feasible : bool; obj : float }
      (** The iteration budget ran out; [obj] is meaningful only when
          [feasible]. *)

val iter_column : Model.std -> int -> (int -> float -> unit) -> unit
(** [iter_column std j f] calls [f row coef] for every nonzero of column [j]
    of the solver's standard form: structural columns [j < nvars] from the
    compiled model, slack column [nvars + i] as the unit vector e_i.  This
    is the [~col] callback the solver hands {!Basis.refactorize} for a
    {!warm_basis}'s [wcols]. *)

val crash : Model.std -> float array -> warm_basis
(** [crash std x0] is a triangular starting basis built from the point
    [x0] (one entry per structural; Bixby's crash, ORSA J. Computing 4(3),
    1992).  Structurals on a bound at [x0] rest nonbasic there.  Each
    structural strictly inside its bounds replaces the slack of a
    {e tight} row — one whose slack sits on its bound at [x0]; Eq rows
    always — where its entry is largest and at least a tenth of its
    column's largest, after which every row that column touches is closed
    to later columns; columns touching fewer tight rows choose first.  The
    result is triangular, hence nonsingular by construction, and needs no
    completion: unchosen rows keep their slacks basic.  A column that finds
    no row rests at its nearer bound.  When [x0] is feasible and every
    interior structural found a row, the basis reproduces [x0] and the
    solve starts in phase 2.  [wfac] is [None]: the solve factorizes it.
    An [x0] with every structural at its lower bound gives the all-slack
    basis. *)

val solve :
  ?degen_limit:int ->
  ?trace:(iteration:int -> min_devex_weight:float -> unit) ->
  ?ws:workspace ->
  ?basis:warm_basis ->
  ?lb:float array ->
  ?ub:float array ->
  Model.std ->
  result
(** [solve std] solves the LP relaxation.  [lb]/[ub] override the structural
    variable bounds without touching [std] (this is how branch-and-bound
    explores nodes).  [basis] warm-starts from a previous solve's final
    basis (see {!warm_basis}); every solve starts from a fresh Devex
    framework.  [degen_limit] is the number of consecutive degenerate
    pivots tolerated before switching to Bland's rule (default 100; [0]
    switches on the first degenerate pivot — the cycling tests force the
    Bland fallback this way).  [trace], when supplied, is called after
    every primal pivot with the iteration count and the minimum Devex
    weight over all columns (the property tests pin that every weight
    stays ≥ 1).  [ws] supplies a reusable {!workspace}.  The iteration
    budget is [20000 + 60·(m + n)] pivots over [m] rows and [n] columns
    including slacks, and the primal feasibility and reduced-cost
    tolerances are both [1e-7].  [Optimal]'s [duals] are the cached
    multipliers when they were computed on the final factors, else one
    more BTRAN. *)
