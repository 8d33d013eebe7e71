(** The RAS MIP model (paper §3.5.3, Table 1), built over symmetry classes.

    Per (class, reservation) pair with a non-zero RRU value there is one
    integer count, held in one or two integer columns.  The model
    linearizes the paper's objective:

    - expression (1), stability: [M_s * max(0, N0 - n)] for a pair whose
      reservation holds [N0 > 0] of the class's servers now, with the
      movement cost [M_s] 10x higher for in-use servers (§4.6).  The cost
      is convex and piecewise linear in the count, so it is a bound split,
      not a row: the count is [held + added], [held] in [0, N0] costing
      [M_s] less per server than [added] in [0, size - N0], and
      [M_s * N0] is an objective constant.  The cheaper column fills
      first, so the split prices every count exactly as the term does;
    - expressions (2)/(3), spread-wide: a positive-part auxiliary per
      (reservation, rack/MSB) weighted by [beta];
    - expression (4), buffer size: one [z_r >= sum over each MSB] auxiliary
      per reservation weighted by [tau];
    - expression (6), embedded correlated-failure buffer: the same [z_r]
      appears in [total - z_r >= C_r], so surviving the worst MSB loss is a
      hard (but softened) constraint;
    - expression (7), datacenter affinity: two-sided bounds on per-DC
      capacity share;
    - expression (5): per-class supply rows.

    Following §3.5.1, constraints that could block fulfillment (capacity,
    affinity) are {e softened}: slack variables with costs far above any
    legitimate objective term keep the model feasible while making every
    violation visible in the solution, which is also how Fig. 9 measures
    "optimal to fix all softened constraints". *)

type params = {
  move_cost_unused : float;  (** [M_s] for servers without containers *)
  move_cost_in_use : float;  (** [M_s] for in-use servers (10x, §4.6) *)
  spread_penalty : float;  (** [beta] *)
  buffer_cost : float;  (** [tau] *)
  capacity_slack_cost : float;  (** softening cost per missing RRU *)
  affinity_slack_cost : float;
  assignment_cost : float;
      (** tiny per-assigned-server cost so optima do not hoard free servers *)
  wear_penalty : float;
      (** §5.2 IO-aware placement: objective cost per (wear bucket x
          io_intensity) of an assigned server *)
}

val default_params : params

type pair = {
  cls : Symmetry.cls;
  res : Reservation.t;
  held : Ras_mip.Model.var;
      (** the column of the servers [res] keeps of the [current] it holds
          in [cls], bounded by [current]; [-1] when [current = 0] *)
  added : Ras_mip.Model.var;
      (** the column of the servers past [current], bounded by
          [size - current]; the whole count when [current = 0]; [-1] when
          [current] is the class size *)
  current : int;
      (** the servers of [cls] that [res] holds now, where the stability
          term prices them; 0 when the class's move cost is 0 *)
  rru : float;  (** [V_{s,r}]: the RRU one server of [cls] gives [res] *)
  res_index : int;  (** position of [res] in [reservations] *)
}

val count : float array -> pair -> float
(** The pair's count in a solution vector: [held] plus [added].  Every
    reader of a solution reads a pair's count through this. *)

type t = {
  model : Ras_mip.Model.t;
  symmetry : Symmetry.t;
  reservations : Reservation.t list;
  pairs : pair array;
      (** the (class, reservation) pairs in creation order: classes
          outermost, then reservations; a pair's position here is its pair
          index *)
  res_pairs : int array array;
      (** per reservation position: its pair indices, descending *)
  class_pairs : int array array;
      (** per class index: its pair indices, descending *)
  supply_rows : (int * Symmetry.cls) list;
      (** (row index, class) of every expression-(5) class-supply row, in
          ascending row order; a compiled model keeps the row indices *)
  capacity_slack : (int * Ras_mip.Model.var) list;  (** reservation id -> slack *)
  buffer_var : (int * Ras_mip.Model.var) list;  (** reservation id -> z_r *)
  aux_defs : (Ras_mip.Model.var * Ras_mip.Lin_expr.t list) list;
      (** auxiliary variables with the expressions they upper-bound, in
          ascending variable order (see {!encode}) *)
  params : params;
  rack_level : bool;
}

val build : ?params:params -> ?rack_level:bool -> Symmetry.t -> t
(** The model of the symmetry build's snapshot: its reservations, in
    [snapshot.reservations] order, over its classes.  Rack goals (alpha_K
    spread) are only emitted when [rack_level] is set and the symmetry
    build is rack-keyed. *)

val num_assignment_vars : t -> int

type assignment = { counts : (Symmetry.cls * Reservation.t * int) list }
(** How many servers of each class go to each reservation (pairs with a zero
    count are omitted). *)

val decode : t -> float array -> assignment
(** Read counts out of a solver solution vector. *)

val capacity_shortfalls : t -> float array -> (int * float) list
(** Softened capacity violations per reservation id (only positive ones) —
    the "broken constraints" Fig. 9 talks about. *)

val encode : t -> (pair -> int) -> float array
(** Build a complete, feasible solution vector from per-pair assignment
    counts: a count fills [held] first, then [added], and auxiliaries take
    their cheapest feasible values.  The counts must respect class supply;
    this is not re-checked here. *)

val status_quo : t -> float array
(** {!encode} of the current assignment — the do-nothing solution.  Because
    capacity constraints are softened, this is always feasible, and it is
    handed to branch-and-bound as the initial incumbent so a solve can only
    improve on doing nothing. *)

val round_lp : t -> float array -> float array
(** Largest-remainder rounding of an LP-relaxation solution into a feasible
    integral one ({!encode}d): per class, every pair's count is floored and
    the class's remaining LP mass goes one server at a time to the pairs
    with the largest fractional parts, ties in [class_pairs] order.  This is
    the primal heuristic that makes timed-out solves useful: its objective
    is typically within a few movement units of the LP bound (Fig. 9's
    quality-gap regime). *)

val repair : t -> float array -> float array
(** Greedy repair of an integral solution, in three passes over one count
    per pair:
    - capacity: tops up reservations left short (e.g. by rounding scarce
      hardware classes) from unassigned supply first, then from donors
      that stay above their own capacity;
    - spread: for embedded-buffer reservations, moves servers out of the
      fullest MSB while that lowers it without shrinking the total or
      taking the reservation further outside its datacenter-affinity
      window;
    - affinity: swaps servers between datacenters toward the declared
      shares, never shrinking the total and never taking an
      embedded-buffer reservation's capacity after its worst MSB loss
      (expression 6) below the request, or lower when already below.
    The input must fit every class's supply, as {!round_lp}'s output does;
    repair never removes servers from an over-filled class. *)

