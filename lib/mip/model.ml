type var = int

type kind = Continuous | Integer

type sense = Le | Ge | Eq

type row = { rname : string; expr : Lin_expr.t; rsense : sense; rrhs : float }

type vinfo = { vname : string; vlb : float; vub : float; vkind : kind }

type t = {
  mutable vars : vinfo array;
  mutable nvars : int;
  mutable rows : row list;  (* reversed *)
  mutable nrows : int;
  mutable obj : Lin_expr.t;
}

let create () = { vars = Array.make 16 { vname = ""; vlb = 0.; vub = 0.; vkind = Continuous }; nvars = 0; rows = []; nrows = 0; obj = Lin_expr.zero }

let add_var ?name ?(lb = 0.0) ?(ub = infinity) ?(kind = Continuous) t =
  if lb > ub then invalid_arg "Model.add_var: lb > ub";
  if t.nvars = Array.length t.vars then begin
    let bigger = Array.make (2 * t.nvars) t.vars.(0) in
    Array.blit t.vars 0 bigger 0 t.nvars;
    t.vars <- bigger
  end;
  let id = t.nvars in
  let vname = match name with Some n -> n | None -> Printf.sprintf "x%d" id in
  t.vars.(id) <- { vname; vlb = lb; vub = ub; vkind = kind };
  t.nvars <- t.nvars + 1;
  id

let add_constraint ?name t expr rsense rhs =
  let id = t.nrows in
  let rname = match name with Some n -> n | None -> Printf.sprintf "r%d" id in
  let rrhs = rhs -. Lin_expr.get_constant expr in
  t.rows <- { rname; expr; rsense; rrhs } :: t.rows;
  t.nrows <- t.nrows + 1;
  id

let set_objective t e = t.obj <- e

let add_to_objective t e = t.obj <- Lin_expr.add t.obj e

let add_pos_part ?name t ~weight e =
  if weight < 0.0 then invalid_arg "Model.add_pos_part: negative weight";
  let y = add_var ?name ~lb:0.0 t in
  (* y >= e  <=>  e - y <= 0; the defining row is named after the
     auxiliary variable *)
  let rname = Printf.sprintf "%s_def" t.vars.(y).vname in
  let _ = add_constraint ~name:rname t (Lin_expr.sub e (Lin_expr.var y)) Le 0.0 in
  add_to_objective t (Lin_expr.term weight y);
  y

let add_max_over ?name t ~weight es =
  if weight < 0.0 then invalid_arg "Model.add_max_over: negative weight";
  let z = add_var ?name ~lb:0.0 t in
  let vname = t.vars.(z).vname in
  let bound i e =
    ignore
      (add_constraint
         ~name:(Printf.sprintf "%s_def%d" vname i)
         t (Lin_expr.sub e (Lin_expr.var z)) Le 0.0)
  in
  List.iteri bound es;
  add_to_objective t (Lin_expr.term weight z);
  z

let num_vars t = t.nvars

let check_var t v fn =
  if v < 0 || v >= t.nvars then
    invalid_arg (Printf.sprintf "Model.%s: variable %d out of range" fn v)

let var_bounds t v = check_var t v "var_bounds"; (t.vars.(v).vlb, t.vars.(v).vub)

let objective t = t.obj

type std = {
  nvars : int;
  nrows : int;
  obj : float array;
  obj_offset : float;
  lb : float array;
  ub : float array;
  integer : bool array;
  row_sense : sense array;
  rhs : float array;
  col_ptr : int array;
  col_ind : int array;
  col_val : float array;
  row_cols : int array array;
  row_coefs : float array array;
  var_names : string array;
  row_names : string array;
}

let compile (t : t) =
  let nvars = t.nvars and nrows = t.nrows in
  let obj = Array.make nvars 0.0 in
  let set_obj (c, v) =
    if v < 0 || v >= nvars then invalid_arg "Model.compile: objective references unknown variable";
    obj.(v) <- obj.(v) +. c
  in
  List.iter set_obj (Lin_expr.terms t.obj);
  let rows = Array.of_list (List.rev t.rows) in
  let row_sense = Array.map (fun r -> r.rsense) rows in
  let rhs = Array.map (fun r -> r.rrhs) rows in
  let row_names = Array.map (fun r -> r.rname) rows in
  let row_cols = Array.make nrows [||] and row_coefs = Array.make nrows [||] in
  (* Column counts first so we can size the CSC arrays exactly. *)
  let col_count = Array.make nvars 0 in
  let terms_of = Array.make nrows [] in
  Array.iteri
    (fun i r ->
      let ts = Lin_expr.terms r.expr in
      terms_of.(i) <- ts;
      let count (c, v) =
        if v < 0 || v >= nvars then
          invalid_arg (Printf.sprintf "Model.compile: row %s references unknown variable %d" r.rname v);
        if c <> 0.0 then col_count.(v) <- col_count.(v) + 1
      in
      List.iter count ts)
    rows;
  (* packed CSC: col_ptr.(v) .. col_ptr.(v+1)-1 index into col_ind/col_val *)
  let col_ptr = Array.make (nvars + 1) 0 in
  for v = 0 to nvars - 1 do
    col_ptr.(v + 1) <- col_ptr.(v) + col_count.(v)
  done;
  let nnz = col_ptr.(nvars) in
  let col_ind = Array.make nnz 0 in
  let col_val = Array.make nnz 0.0 in
  let col_fill = Array.blit col_ptr 0 col_count 0 nvars; col_count in
  Array.iteri
    (fun i _ ->
      let ts = List.filter (fun (c, _) -> c <> 0.0) terms_of.(i) in
      row_cols.(i) <- Array.of_list (List.map snd ts);
      row_coefs.(i) <- Array.of_list (List.map fst ts);
      let fill (c, v) =
        let k = col_fill.(v) in
        col_ind.(k) <- i;
        col_val.(k) <- c;
        col_fill.(v) <- k + 1
      in
      List.iter fill ts)
    rows;
  {
    nvars;
    nrows;
    obj;
    obj_offset = Lin_expr.get_constant t.obj;
    lb = Array.init nvars (fun v -> t.vars.(v).vlb);
    ub = Array.init nvars (fun v -> t.vars.(v).vub);
    integer = Array.init nvars (fun v -> t.vars.(v).vkind = Integer);
    row_sense;
    rhs;
    col_ptr;
    col_ind;
    col_val;
    row_cols;
    row_coefs;
    var_names = Array.init nvars (fun v -> t.vars.(v).vname);
    row_names;
  }

let check_solution ?(tol = 1e-6) std x =
  if Array.length x <> std.nvars then Error "solution length mismatch"
  else begin
    let error = ref None in
    let fail msg = if !error = None then error := Some msg in
    for v = 0 to std.nvars - 1 do
      if x.(v) < std.lb.(v) -. tol then
        fail (Printf.sprintf "%s below lower bound (%g < %g)" std.var_names.(v) x.(v) std.lb.(v));
      if x.(v) > std.ub.(v) +. tol then
        fail (Printf.sprintf "%s above upper bound (%g > %g)" std.var_names.(v) x.(v) std.ub.(v));
      if std.integer.(v) && Float.abs (x.(v) -. Float.round x.(v)) > tol then
        fail (Printf.sprintf "%s not integral (%g)" std.var_names.(v) x.(v))
    done;
    for i = 0 to std.nrows - 1 do
      let lhs = ref 0.0 in
      let cols = std.row_cols.(i) and coefs = std.row_coefs.(i) in
      for k = 0 to Array.length cols - 1 do
        lhs := !lhs +. (coefs.(k) *. x.(cols.(k)))
      done;
      let violated =
        match std.row_sense.(i) with
        | Le -> !lhs > std.rhs.(i) +. tol
        | Ge -> !lhs < std.rhs.(i) -. tol
        | Eq -> Float.abs (!lhs -. std.rhs.(i)) > tol
      in
      if violated then
        fail (Printf.sprintf "row %s violated (lhs=%g rhs=%g)" std.row_names.(i) !lhs std.rhs.(i))
    done;
    match !error with None -> Ok () | Some msg -> Error msg
  end

let pp_stats ppf std =
  let nint = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 std.integer in
  let nnz = std.col_ptr.(std.nvars) in
  Format.fprintf ppf "vars=%d (int=%d) rows=%d nnz=%d" std.nvars nint std.nrows nnz
