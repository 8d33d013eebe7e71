(* Expressions are kept as an unsorted term list plus a constant:
   duplicates are merged once, when [Model.compile] consumes the
   expression.  [add a b] copies [a]'s terms onto [b]'s, O(length of [a]),
   so a long accumulation keeps the accumulator second. *)

type t = { terms : (float * int) list; const : float }

let zero = { terms = []; const = 0.0 }

let constant c = { terms = []; const = c }

let term c v = { terms = [ (c, v) ]; const = 0.0 }

let var v = term 1.0 v

let add a b = { terms = List.rev_append a.terms b.terms; const = a.const +. b.const }

let scale k e =
  if k = 0.0 then { zero with const = 0.0 }
  else { terms = List.map (fun (c, v) -> (k *. c, v)) e.terms; const = k *. e.const }

let sub a b = add a (scale (-1.0) b)

let of_terms terms = { terms; const = 0.0 }

let get_constant e = e.const

let iter f e =
  let rec go = function
    | [] -> ()
    | (c, v) :: rest ->
      f c v;
      go rest
  in
  go e.terms

let eval e value_of =
  List.fold_left (fun acc (c, v) -> acc +. (c *. value_of v)) e.const e.terms
