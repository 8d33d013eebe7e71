(** The RAS MIP model (paper §3.5.3, Table 1), built over symmetry classes.

    Per (class, reservation) pair with a non-zero RRU value there is one
    integer count variable.  The model linearizes the paper's objective:

    - expression (1), stability: an auxiliary move variable per pair with a
      positive current count, [move >= N0 - n], weighted by the movement
      cost (10x higher for in-use servers, §4.6);
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

type pair = { cls : Symmetry.cls; res : Reservation.t; var : Ras_mip.Model.var }

type t = {
  model : Ras_mip.Model.t;
  symmetry : Symmetry.t;
  reservations : Reservation.t list;
  pairs : pair list;  (** assignment variables in creation order *)
  capacity_slack : (int * Ras_mip.Model.var) list;  (** reservation id -> slack *)
  buffer_var : (int * Ras_mip.Model.var) list;  (** reservation id -> z_r *)
  aux_defs : (Ras_mip.Model.var * Ras_mip.Lin_expr.t list) list;
      (** auxiliary variables with the expressions they upper-bound, in
          ascending variable order (see {!encode}) *)
  params : params;
  rack_level : bool;
}

val build :
  ?params:params ->
  ?rack_level:bool ->
  Symmetry.t ->
  Reservation.t list ->
  t
(** Rack goals (alpha_K spread) are only emitted when [rack_level] is set
    and the symmetry build is rack-keyed. *)

val num_assignment_vars : t -> int

type assignment = { counts : (Symmetry.cls * Reservation.t * int) list }
(** How many servers of each class go to each reservation (pairs with a zero
    count are omitted). *)

val decode : t -> float array -> assignment
(** Read counts out of a solver solution vector. *)

val capacity_shortfalls : t -> float array -> (int * float) list
(** Softened capacity violations per reservation id (only positive ones) —
    the "broken constraints" Fig. 9 talks about. *)

val movement_units : t -> float array -> in_use:bool -> float
(** Total servers moved out of their current owner, split by in-use flag —
    feeds Fig. 16. *)

val encode : t -> (pair -> int) -> float array
(** Build a complete, feasible solution vector from per-pair assignment
    counts (auxiliaries take their cheapest feasible values).  The counts
    must respect class supply; this is not re-checked here. *)

val status_quo : t -> float array
(** {!encode} of the current assignment — the do-nothing solution.  Because
    capacity constraints are softened, this is always feasible, and it is
    handed to branch-and-bound as the initial incumbent so a solve can only
    improve on doing nothing. *)

val round_lp : t -> float array -> float array
(** Largest-remainder rounding of an LP-relaxation solution into a feasible
    integral one ({!encode}d).  This is the primal heuristic that makes
    timed-out solves useful: its objective is typically within a few
    movement units of the LP bound (Fig. 9's quality-gap regime). *)

val repair : t -> float array -> float array
(** Greedy capacity repair of an integral solution: tops up reservations
    left short (e.g. by rounding scarce hardware classes) from unassigned
    supply first, then from donors that stay above their own capacity.
    The input must fit every class's supply, as {!round_lp}'s output does;
    repair never removes servers from an over-filled class. *)

