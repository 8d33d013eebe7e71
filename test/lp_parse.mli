(** CPLEX-LP-format reader for the dialect {!Ras_mip.Lp_format} writes:
    the test suite reads its golden corpus ([fixtures/*.lp]) with it and
    round-trips and fuzzes the writer against it.

    Together with the writer this gives the solver a round-trippable
    external representation: models can be dumped, inspected or edited by
    hand, re-read, and solved.  The supported grammar is the writer's
    output: a [Minimize] section with one objective row, [Subject To] rows
    ([<=], [>=], [=]), a [Bounds] section (one line per variable: either
    [name = v] or [lo <= name <= hi] with [-inf]/[+inf]), an optional
    [General] integer section and [End].

    Variables are indexed in [Bounds]-section order, which is how the
    writer emits them, so a write→parse round trip preserves variable
    indices. *)

val parse : string -> (Ras_mip.Model.std, string) result
(** Parse a model; the error string carries the offending line.  NaN is
    rejected everywhere; objective and row coefficients, right-hand sides
    and fixed values must be finite, a lower bound may not be [+inf] and
    an upper bound may not be [-inf]. *)

val parse_file : string -> (Ras_mip.Model.std, string) result

val parse_model : string -> (Ras_mip.Model.t, string) result
(** [parse] before the compile: the model as read, for tests that compile
    it themselves. *)

val parse_model_file : string -> (Ras_mip.Model.t, string) result
