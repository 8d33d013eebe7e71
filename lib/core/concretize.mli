(** Turn the solver's per-class counts back into concrete server bindings.

    Within a class all members are interchangeable, so the mapping is free
    to prefer stability: members already owned by a reservation fill that
    reservation's quota first, and only the surplus moves.  Free servers are
    consumed before servers are taken away from other owners.  The result is
    the solver output of Fig. 6 step 3: a target owner per server.

    The work runs on a target column: an [int array] of
    {!Ras_broker.Broker.owner_code}s indexed by server id, [-1] where the
    solve covered no server.  Each class's members are walked once. *)

type move = {
  server : int;
  from_ : Ras_broker.Broker.owner;
  to_ : Ras_broker.Broker.owner;
  was_in_use : bool;
}

type plan = {
  moves : move list;  (** servers whose owner changes, ascending id *)
  targets : (int * Ras_broker.Broker.owner) list;
      (** target owner for every server the solve covered (including the
          ones that stay put), ascending id *)
}

val plan : Formulation.t -> Formulation.assignment -> plan
(** {!write_targets} into a fresh column, then {!plan_of_column} against the
    formulation's snapshot. *)

val write_targets : Formulation.t -> Formulation.assignment -> int array -> unit
(** [write_targets f assignment column] writes the target owner code of
    every member of [f]'s classes into [column] (length: the snapshot's
    server count) and leaves every other cell as it was. *)

val plan_of_column : Snapshot.t -> int array -> plan
(** The plan of a target column: a target for every covered cell, and a
    move, relative to the snapshot, for every covered server whose target
    is not its current owner.  One descending pass, so both lists come out
    in ascending id order. *)

val moves_in_use : plan -> int

val moves_unused : plan -> int
