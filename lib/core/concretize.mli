(** Turn the solver's per-class counts back into concrete server moves.

    Within a class all members are interchangeable, so the mapping is free
    to prefer stability: members already owned by a reservation fill that
    reservation's quota first, and only the surplus moves.  Free servers are
    consumed before servers are taken away from other owners.  The result is
    the solver output of Fig. 6 step 3, stated as the moves it makes: every
    server the solve covered and does not move keeps its current owner as
    its target.

    A class whose quotas leave every member with its owner is skipped; the
    members of the others are walked once.  The work is O(classes + members
    of the classes that change + moves), never O(servers). *)

type move = {
  server : int;
  from_ : Ras_broker.Broker.owner;
  to_ : Ras_broker.Broker.owner;
  was_in_use : bool;
}

type plan = {
  moves : move list;  (** servers whose owner changes, ascending id *)
  targets : (int * Ras_broker.Broker.owner) list;
      (** the target write of every move, [(server, to_)], ascending id *)
  covers : int -> bool;
      (** the servers the solve covered.  A covered server that does not
          move keeps its current owner as target; {!Online_mover.apply_plan}
          resets the stale ones *)
}

val moves_of : Formulation.t -> Formulation.assignment -> move list
(** The moves that realize an assignment, relative to the formulation's
    snapshot, ascending id. *)

val held : Formulation.t -> Formulation.assignment -> Ras_broker.Broker.owner -> int
(** [held f assignment owner]: how many of the servers [f] covers [owner]
    holds once {!moves_of}'s moves are made: a reservation its counts,
    [Free] the rest.  [held f assignment] costs O(classes + pairs), each
    query O(1). *)

val merge : Snapshot.t -> phase1:move list -> phase2:move list -> move list
(** [merge snapshot ~phase1 ~phase2]: a later phase's moves, made from a
    snapshot with [phase1]'s moves applied, override [phase1]'s on the
    servers they move and are restated against [snapshot]; a server a
    [phase2] move returns to its [snapshot] owner no longer moves.  One
    merge by server id. *)

val of_moves : covers:(int -> bool) -> move list -> plan

val plan : Formulation.t -> Formulation.assignment -> plan
(** {!moves_of}, covering the formulation's classes. *)

val moves_in_use : plan -> int

val moves_unused : plan -> int
