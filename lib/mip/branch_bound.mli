(** Branch-and-bound mixed-integer solver over the {!Simplex} LP relaxation.

    Nodes carry their own bound arrays; best-bound (best-first) node
    selection with depth-first plunging; branching on the most fractional
    integer variable.  Incumbents come from the caller's seed
    ([options.initial]) and from node LPs whose solution is integral.  The
    solver honours wall-clock and node limits and reports the remaining optimality
    gap — RAS deliberately runs its solver with a timeout and reasons about
    the gap (paper §4.1.2, Fig. 9), so the gap is a first-class output.

    Every non-root node's LP is warm-started from its parent's optimal
    basis (see {!Simplex.warm_basis}): because a bound tightening leaves the
    parent-optimal basis dual feasible, the child typically re-optimizes in
    a handful of dual-simplex pivots instead of a full cold two-phase solve.
    Nodes store basis snapshots without the factorization; a one-entry cache
    keeps the most recent parent's factors so plunged children restart for
    free, while heap revisits re-factorize. *)

type status =
  | Optimal  (** proven optimal within tolerances *)
  | Feasible  (** stopped at a limit with an incumbent *)
  | Infeasible
  | Unbounded
  | Unknown  (** stopped at a limit with no incumbent *)

type options = {
  time_limit : float;  (** seconds of wall clock; [infinity] disables *)
  node_limit : int;
      (** [0] processes no node: the root stays open, so a seeded search
          reports [Feasible] with [best_bound = neg_infinity] *)
  gap_rel : float;
      (** stop when [incumbent - best_bound <= gap_rel * max 1 |incumbent|] *)
  gap_abs : float;
      (** stop when [incumbent - best_bound <= gap_abs]; a node whose LP
          bound is within [gap_abs] of the incumbent is not branched on.
          Either gap rule leaves the unsearched nodes open, so
          [best_bound] and [gap] report what was proven, not a closed gap.
          The soft-penalty allocation MIPs carry an integrality gap the
          bound rarely closes, so [Phases.run] sets this to the
          capacity-slack cost in phase 1: an incumbent within it cannot
          leave a softened capacity constraint that search could fix *)
  stall_node_limit : int;
      (** stop once the incumbent has not improved for this many
          consecutive nodes (0 disables) *)
  initial : float array option;
      (** a known solution to seed the incumbent.  The seed is checked
          with {!Model.check_solution} and used as given or rejected,
          never repaired: a caller's incumbent for a since-changed model
          must be re-encoded against the new one.  The outcome's [seed]
          field reports which happened; a bad seed never raises. *)
  root_basis : Simplex.warm_basis option;
      (** warm basis for the {e root} node's LP — typically the optimal
          basis of a relaxation of the same model the caller already solved
          (the phase-1 root LP), with its factors, which the root adopts
          as-is (see {!Simplex.warm_basis}).  Advisory: the simplex
          validates it and falls back to a cold root solve on any mismatch
          or a singular basis.  Child nodes are unaffected (they always
          warm-start from their parent). *)
}

val default_options : options
(** [time_limit = infinity], [node_limit = 100_000], [gap_rel = 1e-9],
    [gap_abs = 1e-6], no stall limit, no initial solution or root basis.
    The integrality tolerance on LP values, which no caller varies, is
    fixed at [1e-6]. *)

type seed_status =
  | Seed_none  (** no initial solution was supplied *)
  | Seed_accepted
      (** the seed passed {!Model.check_solution} and became the starting
          incumbent *)
  | Seed_rejected
      (** the seed failed {!Model.check_solution} or had the wrong length
          (an infeasible model rejects every seed); it is not repaired, and
          the search started unseeded *)

type outcome = {
  status : status;
  solution : float array option;  (** incumbent, one entry per variable *)
  objective : float;  (** incumbent objective; [infinity] when none *)
  best_bound : float;
      (** proven lower bound on the optimum: the least bound over the nodes
          left open, capped at the incumbent *)
  gap : float;  (** [objective - best_bound]; [infinity] when no incumbent *)
  nodes : int;
  lp_iterations : int;
  warm_started_nodes : int;
      (** nodes whose LP restarted from a parent basis rather than cold *)
  dual_restarted_nodes : int;
      (** warm-started nodes whose LP re-optimized via dual-simplex pivots *)
  dual_pivots : int;  (** total dual-simplex pivots across all node LPs *)
  bland_pivots : int;
      (** total primal pivots taken under the Bland anti-cycling fallback
          across all node LPs (nonzero means some node hit a degenerate
          stall) *)
  seed : seed_status;  (** what became of [options.initial] *)
  elapsed : float;  (** seconds *)
}

val solve : ?options:options -> Model.std -> outcome
(** Solves [min obj.x] over the model as compiled, honouring integrality
    markers; no reduction is applied first.  Integer bounds are rounded
    inward at the root, and an infeasible model (an empty integer window,
    a row no activity can satisfy) is proven so by the root LP.  A model with no
    integer variables reduces to a single LP solve.

    Adjacent integer columns [j] and [j + 1] with the same constraint
    entries and [j] strictly cheaper (a bound split's two columns) branch
    together: every optimum has [x_j] at its upper bound or [x_(j+1)] at
    its lower one, so a down branch on [j] also fixes [j + 1] at its lower
    bound, and an up branch on [j + 1] fixes [j] at its upper bound. *)
