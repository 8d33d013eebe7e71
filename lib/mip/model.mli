(** Mixed-integer-program modeling layer.

    A model owns variables (continuous or integer, with bounds), linear
    constraints and a linear objective.  It compiles to the dense-bound /
    sparse-column standard form consumed by {!Simplex} and {!Branch_bound}.

    Convenience builders are provided for the two linearizations the RAS
    formulation relies on: [add_pos_part] for [max(0, e)] objective terms and
    [add_max_over] for [max_G (e_G)] terms. *)

type var = int
(** Variable handle: the index assigned by {!add_var}, also the index into
    solution arrays. *)

type kind = Continuous | Integer

type sense = Le | Ge | Eq

type row = { rname : string; expr : Lin_expr.t; rsense : sense; rrhs : float }

type vinfo = { vname : string; vlb : float; vub : float; vkind : kind }

(** A model under construction, readable but built only through the
    functions below. *)
type t = private {
  mutable vars : vinfo array;  (** slots [0 .. nvars-1] are the variables *)
  mutable nvars : int;
  mutable rows : row list;  (** newest first *)
  mutable nrows : int;
  mutable obj : Lin_expr.t;
}

val create : unit -> t

val add_var :
  ?name:string -> ?lb:float -> ?ub:float -> ?kind:kind -> t -> var
(** New variable.  Defaults: [lb = 0.], [ub = infinity], [Continuous].
    Raises [Invalid_argument] if [lb > ub]. *)

val add_constraint : ?name:string -> t -> Lin_expr.t -> sense -> float -> int
(** [add_constraint t e sense rhs] adds the row [e sense rhs].  The
    expression's constant is folded into the right-hand side.  Returns the
    row index. *)

val set_objective : t -> Lin_expr.t -> unit
(** Sets the (minimization) objective.  The expression's constant becomes a
    fixed objective offset.  Replaces any previous objective. *)

val add_to_objective : t -> Lin_expr.t -> unit
(** Adds the expression to the current objective, in time proportional to
    the expression's terms (not the objective's). *)

val add_pos_part : ?name:string -> t -> weight:float -> Lin_expr.t -> var
(** [add_pos_part t ~weight e] adds [weight * max(0, e)] to the objective by
    introducing an auxiliary continuous variable [y >= e, y >= 0] with
    objective coefficient [weight].  Correct for [weight >= 0] (raises
    [Invalid_argument] otherwise).  Returns the auxiliary variable. *)

val add_max_over : ?name:string -> t -> weight:float -> Lin_expr.t list -> var
(** [add_max_over t ~weight es] adds [weight * max_i e_i] to the objective
    via an auxiliary variable [z >= e_i] for each [i], with objective
    coefficient [weight >= 0].  The auxiliary variable is also usable in
    further constraints (RAS couples the correlated-failure buffer size into
    the capacity constraint this way).  Returns the auxiliary variable. *)

val num_vars : t -> int

(** Compiled standard form: minimize [obj . x] subject to sparse rows
    [row sense rhs] and variable bounds.  Produced once; solvers treat it as
    immutable and keep per-node bound copies themselves. *)
type std = {
  nvars : int;
  nrows : int;
  obj : float array;  (** per-variable objective coefficient *)
  obj_offset : float;
  lb : float array;
  ub : float array;
  integer : bool array;
  row_sense : sense array;
  rhs : float array;
  col_ptr : int array;
      (** packed CSC column pointers, length [nvars + 1]: column [j]'s
          nonzeros are [col_ind]/[col_val] slots [col_ptr.(j)] to
          [col_ptr.(j+1) - 1] (row indices sorted ascending) *)
  col_ind : int array;  (** packed CSC row indices *)
  col_val : float array;  (** packed CSC coefficients *)
  row_cols : int array array;  (** per-row column indices (sorted) *)
  row_coefs : float array array;
  var_names : string array;
  row_names : string array;
}

val compile : t -> std
(** Validates variable indices in all rows and the objective, merges
    duplicate coefficients, and builds both row- and column-major sparse
    views.  Each row's terms are summed per variable in the expression's
    stored order ({!Lin_expr.iter}), starting from [0.], in one dense
    scratch of [nvars] floats stamped by row; a sum equal to zero is
    dropped.  O(nvars + nrows + terms) time, no sort and no table; the
    allocation is the output plus two scratch arrays, O(nvars + nrows).
    An out-of-range index raises [Invalid_argument] naming the row and the
    index. *)

val objective_value : std -> float array -> float
(** [obj_offset + sum_j obj.(j) * x.(j)], summed in ascending [j]; [x] may
    be longer than [nvars]. *)

val check_solution : std -> float array -> (unit, string) result
(** Verifies bounds, integrality and every row within [1e-6]; the error
    string names the first violated item.  Used by tests
    and by the solver's internal assertions. *)

val pp_stats : Format.formatter -> std -> unit
(** One-line size summary: variables (integer count), rows, non-zeros. *)
