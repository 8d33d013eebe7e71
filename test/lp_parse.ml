open Ras_mip

type section = Preamble | Objective | Rows | Bounds | General | Done

exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "%s: %S" msg line))

let is_space c = c = ' ' || c = '\t' || c = '\r'

let tokens line =
  let out = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c -> if is_space c then flush () else Buffer.add_char buf c)
    line;
  flush ();
  List.rev !out

(* [float_of_string] also reads "nan", "inf" and "infinity" in any case;
   NaN is never a valid model number. *)
let float_of_token line t =
  let v =
    match t with
    | "-inf" -> neg_infinity
    | "+inf" | "inf" -> infinity
    | _ -> ( try float_of_string t with Failure _ -> fail line "expected a number")
  in
  if Float.is_nan v then fail line "NaN is not a number";
  v

(* Coefficients and right-hand sides must be finite; only bounds may be
   infinite. *)
let finite_of_token line what t =
  let v = float_of_token line t in
  if not (Float.is_finite v) then fail line (Printf.sprintf "infinite %s" what);
  v

(* Linear expression tokens: [c1 x1 + c2 x2 - c3 x3 ...] or ["0"].  The
   writer always emits an explicit coefficient before each name. *)
let parse_terms line ~var_index toks =
  let rec loop sign acc = function
    | [] -> List.rev acc
    | "+" :: rest -> loop 1.0 acc rest
    | "-" :: rest -> loop (-1.0) acc rest
    | [ "0" ] when acc = [] -> []
    | coef :: name :: rest ->
      let c = sign *. finite_of_token line "coefficient" coef in
      let v =
        match Hashtbl.find_opt var_index name with
        | Some v -> v
        | None -> fail line (Printf.sprintf "unknown variable %s" name)
      in
      loop 1.0 ((v, c) :: acc) rest
    | [ tok ] -> fail line (Printf.sprintf "dangling token %s" tok)
  in
  loop 1.0 [] toks

type wrow = {
  name : string;
  terms : (int * float) list;
  sense : Model.sense;
  rhs : float;
}

let parse_model text =
  try
    let lines = String.split_on_char '\n' text in
    (* Pass 1: the Bounds section defines variable order; General marks
       integrality. *)
    let var_order = ref [] and var_bounds = Hashtbl.create 64 in
    let integers = Hashtbl.create 16 in
    let section = ref Preamble in
    List.iter
      (fun line ->
        match tokens line with
        | [] -> ()
        | [ "Minimize" ] -> section := Objective
        | [ "Subject"; "To" ] -> section := Rows
        | [ "Bounds" ] -> section := Bounds
        | [ "General" ] -> section := General
        | [ "End" ] -> section := Done
        | toks -> (
          match !section with
          | Bounds -> (
            (* A name may appear on several Bounds lines; it must enter
               [var_order] exactly once (a duplicate would skew every later
               variable's index), and repeated declarations intersect. *)
            let add_bound name lo hi =
              (match Hashtbl.find_opt var_bounds name with
              | None ->
                var_order := name :: !var_order;
                Hashtbl.replace var_bounds name (lo, hi)
              | Some (lo0, hi0) ->
                Hashtbl.replace var_bounds name (Float.max lo0 lo, Float.min hi0 hi));
              let lo, hi = Hashtbl.find var_bounds name in
              if lo > hi then
                fail line (Printf.sprintf "contradictory bounds for %s" name)
            in
            match toks with
            | [ name; "="; v ] ->
              let v = finite_of_token line "fixed value" v in
              add_bound name v v
            | [ lo; "<="; name; "<="; hi ] ->
              let lo = float_of_token line lo and hi = float_of_token line hi in
              if lo = infinity then fail line "lower bound +inf";
              if hi = neg_infinity then fail line "upper bound -inf";
              add_bound name lo hi
            | _ -> fail line "malformed bound")
          | General -> (
            match toks with
            | [ name ] -> Hashtbl.replace integers name ()
            | _ -> fail line "malformed integer declaration")
          | Preamble | Objective | Rows | Done -> ()))
      lines;
    let names = Array.of_list (List.rev !var_order) in
    let nvars = Array.length names in
    let var_index = Hashtbl.create nvars in
    Array.iteri (fun i n -> Hashtbl.replace var_index n i) names;
    (* Pass 2: objective and rows. *)
    let obj_terms = ref [] and rows = ref [] in
    let section = ref Preamble in
    List.iter
      (fun line ->
        match tokens line with
        | [] -> ()
        | [ "Minimize" ] -> section := Objective
        | [ "Subject"; "To" ] -> section := Rows
        | [ "Bounds" ] -> section := Bounds
        | [ "General" ] -> section := General
        | [ "End" ] -> section := Done
        | toks -> (
          match !section with
          | Objective -> (
            match toks with
            | label :: rest when String.length label > 0 && label.[String.length label - 1] = ':'
              ->
              obj_terms := !obj_terms @ parse_terms line ~var_index rest
            | rest -> obj_terms := !obj_terms @ parse_terms line ~var_index rest)
          | Rows -> (
            let label, rest =
              match toks with
              | label :: rest when String.length label > 0 && label.[String.length label - 1] = ':'
                ->
                (String.sub label 0 (String.length label - 1), rest)
              | _ -> fail line "row without a label"
            in
            (* split at the comparison operator *)
            let rec split acc = function
              | "<=" :: rhs -> (List.rev acc, Model.Le, rhs)
              | ">=" :: rhs -> (List.rev acc, Model.Ge, rhs)
              | "=" :: rhs -> (List.rev acc, Model.Eq, rhs)
              | tok :: rest -> split (tok :: acc) rest
              | [] -> fail line "row without a comparison"
            in
            let lhs, sense, rhs_toks = split [] rest in
            match rhs_toks with
            | [ rhs ] ->
              rows :=
                {
                  name = label;
                  terms = parse_terms line ~var_index lhs;
                  sense;
                  rhs = finite_of_token line "right-hand side" rhs;
                }
                :: !rows
            | _ -> fail line "malformed right-hand side")
          | Preamble | Bounds | General | Done -> ()))
      lines;
    let rows = Array.of_list (List.rev !rows) in
    (* Build the std via the Model layer so CSC/CSR views are consistent. *)
    let m = Model.create () in
    Array.iteri
      (fun i name ->
        let lb, ub = Hashtbl.find var_bounds name in
        let kind = if Hashtbl.mem integers name then Model.Integer else Model.Continuous in
        let v = Model.add_var ~name ~lb ~ub ~kind m in
        if v <> i then
          raise
            (Parse_error
               (Printf.sprintf "internal: variable order corrupted at %s (index %d, expected %d)"
                  name v i)))
      names;
    Array.iter
      (fun r ->
        let e = Lin_expr.of_terms (List.map (fun (v, c) -> (c, v)) r.terms) in
        ignore (Model.add_constraint ~name:r.name m e r.sense r.rhs))
      rows;
    Model.set_objective m (Lin_expr.of_terms (List.map (fun (v, c) -> (c, v)) !obj_terms));
    Ok m
  with
  | Parse_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let parse text =
  match parse_model text with
  | Ok m -> ( try Ok (Model.compile m) with Invalid_argument msg -> Error msg)
  | Error msg -> Error msg

let read path = In_channel.with_open_text path In_channel.input_all

let parse_file path = match read path with text -> parse text | exception Sys_error msg -> Error msg

let parse_model_file path =
  match read path with text -> parse_model text | exception Sys_error msg -> Error msg
