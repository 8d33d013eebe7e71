(** CPLEX-LP-format writer for compiled models.

    Lets any model built in this repository be dumped to a [.lp] file and
    cross-checked against an external solver, and gives the test suite a
    human-readable rendering of formulations.  Only writing is supported. *)

val to_string : Model.std -> string
(** Render the model in LP format: [Minimize], [Subject To], [Bounds],
    [General] (integer variables) and [End] sections.  The constant
    objective offset has no LP-format representation and is not emitted;
    the test suite's LP reader round trips everything else. *)
