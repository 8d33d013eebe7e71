(** Factorized simplex basis: FTRAN/BTRAN and basis updates over a sparse
    LU factorization, computed with Markowitz pivoting at refactorization
    time and kept current after each simplex pivot by a Forrest–Tomlin
    update of U.  FTRAN/BTRAN run through the triangular factors and the
    update overlay in O(nnz) instead of O(m²), and refactorization rebuilds
    the factors in O(nnz) for the column singletons plus roughly
    O(n log n + nnz·fill) for the n-column nucleus left after them, instead
    of the O(m³) dense elimination (see {!pivot_order}).

    The refactorized L and U never change.  An update that replaces the
    column at U step s vacates that step, appends a new last step whose U
    column is the entering column's spike L⁻¹a_q (kept by its sparse FTRAN),
    and records one row eta that clears the vacated row: FTRAN applies the
    row etas after L, BTRAN their transposes before Lᵀ.  The overlay is per
    holder, so {!copy} costs O(m + updates) and shares the factors.
    Entries below 1e-14 in magnitude are cancellation roundoff and are
    stored as zeros by the pass that finalizes them.

    The sparse solves ({!ftran_col_sparse}, {!btran_unit_sparse}) run as
    graph traversals over the factor patterns (Gilbert–Peierls-style
    reachability), touching only the steps reachable from the right-hand
    side's nonzeros; a traversal whose reach densifies past a fraction of
    the steps runs that pass, and the ones after it, over every step.  The
    dense solves ({!ftran_dense_in_place}, {!btran_dense_into}) run every pass over
    every step.  The entries a traversal skips are structural zeros, so on
    the same factors a sparse solve's nonzeros equal the dense solve's bit
    for bit, which the tests pin; their accuracy is checked by residuals
    ‖B·x − b‖ and ‖Bᵀ·y − c‖ against B rebuilt from the basis columns.

    A basis is factorized as given: a singular one raises {!Singular},
    nothing repairs its rank, and a warm start that meets it falls back to
    a cold start.

    A factorization goes stale in two ways, and {!update_sparse} /
    {!should_refactorize} encode the refactorization policy:
    - the update chain reaches its budget, or the accumulated error
      estimate from small pivots crosses a threshold —
      {!should_refactorize} turns true;
    - a single proposed update cannot be applied stably — the pivot
      element is too small, or the new U diagonal disagrees with the pivot
      times the old one — and {!update_sparse} refuses (returns [false])
      without touching the factorization; the caller must refactorize from
      the new basis instead. *)

(** Sparse vector over a dense backing store: [idx.(0..n-1)] lists the
    nonzero positions in ascending order and [vals] is zero outside them.
    The sparse solves below return svecs owned by the factorization; each
    is valid until the next solve of the same direction on the same
    {!t}. *)
module Svec : sig
  type t = { mutable n : int; idx : int array; vals : float array }
end

type t
(** Mutable factorization state for one m×m basis.  Not thread-safe; copy
    with {!copy} to share across solves (the tree root adopts the root
    LP's factors this way). *)

exception Singular
(** Raised by {!refactorize} when the basis matrix is (numerically)
    singular.  The factorization is left unchanged. *)

val create : m:int -> t
(** Fresh factorization of the m×m identity (the all-slack basis). *)

val dim : t -> int

val set_identity : t -> unit
(** Reset to the identity factorization (cold all-slack start). *)

val refactorize :
  t -> basis:int array -> col:(int -> (int -> float -> unit) -> unit) -> unit
(** [refactorize t ~basis ~col] rebuilds the factorization from scratch for
    the matrix whose [i]-th column is column [basis.(i)] of the constraint
    matrix; [col j f] must call [f row coef] for every nonzero of column
    [j].  Clears the update chain.  Raises {!Singular} (state unchanged)
    when elimination cannot complete. *)

val ftran_dense_in_place : t -> float array -> unit
(** [ftran_dense_in_place t x] overwrites the dense right-hand side [x]
    (indexed by constraint row) with B⁻¹x, indexed by basis position: the
    simplex recomputes its basic-variable values this way in a buffer it
    owns, so the solve allocates nothing. *)

val btran_dense_into : t -> float array -> float array -> unit
(** [btran_dense_into t c y] stores B⁻ᵀc into the caller buffer [y]
    (length m, fully overwritten): the simplex multipliers y solving
    yᵀB = cᵀ for a cost vector [c] indexed by basis position, indexed by
    constraint row.  [c] and [y] must not alias.  The simplex phase-1 dual
    recompute runs every iteration, and the caller buffer keeps it
    allocation-free. *)

val ftran_col_sparse : t -> int array -> float array -> off:int -> len:int -> Svec.t
(** [ftran_col_sparse t ind val_ ~off ~len] returns B⁻¹a for the packed
    column slice a = [ind]/[val_].[off .. off+len-1] (the simplex entering
    column) as a sparse vector indexed by basis position (see {!Svec} for
    the ownership rule).  The triangular passes visit only the steps
    reachable from the column's nonzeros. *)

val ftran_unit_sparse : t -> int -> Svec.t
(** {!ftran_col_sparse} on the unit column e_r (slack columns). *)

val btran_unit_sparse : t -> int -> Svec.t
(** Row [r] of B⁻¹ (equivalently B⁻ᵀe_r) as a sparse row-indexed vector:
    the vector behind the dual-simplex pivot row and the incremental dual
    update.  It lives in the factorization's BTRAN svec (separate from the
    FTRAN svec, so a pivot may hold both at once). *)

val update_sparse : t -> alpha:Svec.t -> row:int -> bool
(** [update_sparse t ~alpha ~row] records the basis change that replaces
    the column in basis position [row], where [alpha] = B⁻¹a_q is the
    result of the last sparse FTRAN on [t] (so [alpha]'s value at [row] is
    the pivot element, and that FTRAN kept the entering column's spike).
    Returns [false] — leaving the factorization unchanged — when the pivot
    element is too small in absolute or relative terms, when the new U
    diagonal disagrees with the pivot times the old diagonal, when the
    update budget is spent, or when [alpha] is not [t]'s last FTRAN since
    the factors last changed; the caller must then {!refactorize} from the
    updated basis.  A successful update costs one Uᵀ pass over the vacated
    row's reach, not a scan of the column; the appended columns' entries
    in that row come off a per-step index, not a scan of the update
    chain. *)

type solve_stats = {
  ftran_calls : int;
  ftran_nnz : int;  (** total result nonzeros over all sparse FTRANs *)
  btran_calls : int;
  btran_nnz : int;
}
(** Sparse-solve counters since creation / the last {!reset_stats}: the
    bench kernel rows derive [avg_ftran_nnz]/[avg_btran_nnz] from these. *)

val solve_stats : t -> solve_stats
val reset_stats : t -> unit

val should_refactorize : t -> bool
(** The update chain has exhausted its budget or the accumulated
    pivot-error estimate crossed its threshold: the caller should
    refactorize at the next safe point. *)

val updates_since_refactor : t -> int

val refactor_count : t -> int

val pivot_order : t -> int array * int array
(** [(rperm, cperm)] of the last LU refactorization: elimination step
    [k] pivoted on constraint row [rperm.(k)] in basis position
    [cperm.(k)].  The first steps pivot column singletons — active columns
    with one active row — off a LIFO stack seeded in position order with
    position 0 on top, pushing each column whose count drops to 1 in its
    pivot row's (ascending) order.  Each remaining step picks the minimum
    Markowitz cost over the 4 active columns of smallest (count, index),
    read off an indexed count heap.  The order is the one rescans of all
    columns would give, which the oracle tests compare.  Fresh copies; the
    identity for a fresh or {!set_identity} factorization. *)

val copy : t -> t
(** [copy t] is a deep copy of [t]: it can be mutated independently, and
    its solve scratch and {!solve_stats} counters start fresh.  This is how
    a warm start reuses a donor solve's factorization. *)
