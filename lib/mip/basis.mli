(** Factorized simplex basis: FTRAN/BTRAN and rank-one updates behind one
    interface, with interchangeable representations.

    - {!Lu} (the production backend): a sparse LU factorization computed with
      Markowitz pivoting at refactorization time, extended by product-form
      eta updates after each simplex pivot.  FTRAN/BTRAN run through the
      triangular factors and the eta file in O(nnz) instead of O(m²), and
      refactorization rebuilds the factors in roughly O(m log m + nnz·fill)
      instead of the O(m³) dense elimination (the sparsest-column candidates
      come off a count heap, see {!pivot_order}).
    - {!Lu_full_scan} (the kernel reference): the {!Lu} factors with every
      triangular solve run as a full scan (see {!kind}).
    - {!Dense} (the reference backend): the explicitly maintained dense
      Gauss–Jordan basis inverse the solver shipped with.  It is kept as the
      differential-testing oracle (see [test/test_differential.ml]) and for
      benchmarking the factorized path against
      ([bench/kernels.ml] eta-vs-dense rows).

    All representations answer the same queries, so {!Simplex} is written
    against this module only and selects the representation through its
    [backend] option.

    A factorization goes stale in two ways, and {!update_sparse} /
    {!should_refactorize} encode the refactorization policy:
    - the update chain grows past its budget (eta file length for {!Lu},
      update count for {!Dense}), or the accumulated error estimate from
      small pivots crosses a threshold — {!should_refactorize} turns true;
    - a single proposed pivot element is too small to apply stably —
      {!update_sparse} refuses (returns [false]) without touching the
      factorization, and the caller must refactorize from the new basis
      instead of dividing by a near-zero. *)

type kind =
  | Dense
  | Lu
      (** Sparse solves run as graph traversals over the factor patterns
          (Gilbert–Peierls-style reachability), touching only the steps
          reachable from the right-hand side's nonzeros.  A traversal whose
          reach densifies past a fraction of the steps falls back to the
          full scan for that pass (the fully-dense-column worst case)
          without changing any result. *)
  | Lu_full_scan
      (** The same factors as {!Lu}, with every sparse solve run as a full
          scan over all elimination steps.  It performs bit-identical
          floating-point operations on every reachable entry — the entries
          a traversal skips are structural zeros — so a solve under either
          LU kind takes the same pivot sequence, which is what the
          sparse-vs-dense differential battery asserts. *)

(** Sparse vector over a dense backing store: [idx.(0..n-1)] lists the
    nonzero positions in ascending order and [vals] is zero outside them.
    The sparse solves below return svecs owned by the factorization; each
    is valid until the next solve of the same direction on the same
    {!t}. *)
module Svec : sig
  type t = { mutable n : int; idx : int array; vals : float array }

  val make : int -> t
  val clear : t -> unit
end

type t
(** Mutable factorization state for one m×m basis.  Not thread-safe; copy
    with {!adopt} to share across solves (branch-and-bound snapshot
    adoption). *)

exception Singular
(** Raised by {!refactorize} when the basis matrix is (numerically)
    singular.  The factorization is left unchanged. *)

val create : kind -> m:int -> t
(** Fresh factorization of the m×m identity (the all-slack basis). *)

val kind : t -> kind
val dim : t -> int

val set_identity : t -> unit
(** Reset to the identity factorization (cold all-slack start). *)

val refactorize :
  t -> basis:int array -> col:(int -> (int -> float -> unit) -> unit) -> unit
(** [refactorize t ~basis ~col] rebuilds the factorization from scratch for
    the matrix whose [i]-th column is column [basis.(i)] of the constraint
    matrix; [col j f] must call [f row coef] for every nonzero of column
    [j].  Clears the eta file / update counter.  Raises {!Singular} (state
    unchanged) when elimination cannot complete. *)

val refactorize_repaired :
  t -> basis:int array -> col:(int -> (int -> float -> unit) -> unit) -> (int * int) list
(** Like {!refactorize}, but a rank-deficient basis is repaired rather than
    rejected (LU kinds only): columns that prove linearly dependent
    during elimination are replaced by unit columns of the rows left
    without a pivot, and the factorization completes for the repaired
    matrix.  Returns the [(position, row)] substitutions — the caller must
    install row [row]'s slack at basis position [position] in its own
    bookkeeping; the empty list means the basis was already nonsingular.
    This is what makes a projected basis usable after row removals
    (branch-and-bound's root basis across presolve's row drops):
    projecting out rows can make carried columns dependent, and
    the repair keeps the independent majority instead of discarding the
    whole warm start.  The {!Dense} backend takes the strict path and
    raises {!Singular}. *)

val ftran_dense : t -> float array -> float array
(** [ftran_dense t b] returns B⁻¹b for a dense right-hand side [b] indexed
    by constraint row; the result is indexed by basis position (used to
    recompute the basic-variable values). *)

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
    the ownership rule).  Under {!Lu} the triangular passes visit only the
    steps reachable from the column's nonzeros. *)

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
    sparse FTRAN of the entering column (so [alpha]'s value at [row] is the
    pivot element).  Returns [false] — leaving the factorization unchanged
    — when the pivot element is too small in absolute or relative terms to
    apply stably; the caller must then {!refactorize} from the updated
    basis.  For the LU kinds a successful update appends one eta to the
    product-form file, built from [alpha]'s pattern without scanning the
    full column; for {!Dense} it performs the Gauss–Jordan rank-one update
    of the inverse. *)

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
(** The update chain has exhausted its budget (eta-file length, dense
    update count) or the accumulated pivot-error estimate crossed its
    threshold: the caller should refactorize at the next safe point. *)

val updates_since_refactor : t -> int

val eta_nnz : t -> int
(** Total nonzeros in the eta file (0 for {!Dense}): the memory and
    per-solve cost of the update chain, exposed for stats and tests. *)

val refactor_count : t -> int

val pivot_order : t -> int array * int array
(** [(rperm, cperm)] of the last LU refactorization: elimination step
    [k] pivoted on constraint row [rperm.(k)] in basis position
    [cperm.(k)].  Each step picks the minimum Markowitz cost over the 4
    active columns of smallest (count, index), read off an indexed count
    heap; the order is the one a scan of all columns would give, which the
    oracle tests compare.  Fresh copies; the identity for a fresh or
    {!set_identity} factorization.  Raises [Invalid_argument] on the
    {!Dense} backend, which has no elimination order. *)

val copy : t -> t
(** Deep copy; the copy can be mutated independently.  Solve scratch and
    the {!solve_stats} counters start fresh. *)

val adopt : t -> kind -> t option
(** [adopt t kind] is a {!copy} of [t] that solves as [kind], or [None]
    when [t]'s representation cannot serve [kind].  {!Lu} and
    {!Lu_full_scan} hold the same factors, so each adopts the other's;
    {!Dense} adopts only {!Dense}.  This is how a warm start reuses a
    donor solve's factorization. *)
