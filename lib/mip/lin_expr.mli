(** Linear expressions over integer-indexed decision variables.

    An expression is [sum_i (coef_i * var_i) + constant].  Variables are the
    opaque indices handed out by {!Model.add_var}; this module never checks
    that an index is valid — {!Model} does that when the expression is used. *)

type t

val zero : t

val constant : float -> t

val term : float -> int -> t
(** [term c v] is the single-term expression [c * v]. *)

val var : int -> t
(** [var v] is [term 1.0 v]. *)

val of_terms : (float * int) list -> t
(** Build from a coefficient/variable list.  Duplicate variables stay
    separate terms until {!Model.compile} sums them. *)

val add : t -> t -> t
(** [add a b] costs O(terms of [a]) and shares [b]'s: an accumulator
    belongs in the second argument. *)

val sub : t -> t -> t

val scale : float -> t -> t

val get_constant : t -> float

val iter : (float -> int -> unit) -> t -> unit
(** [iter f e] calls [f coef var] on every stored term, duplicates and
    zero coefficients included, in the expression's stored order: the
    order {!Model.compile} sums duplicates in. *)

val eval : t -> (int -> float) -> float
(** [eval e value_of] substitutes variable values. *)
