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

let add_to_objective t e = t.obj <- Lin_expr.add e t.obj

let add_pos_part ?name t ~weight e =
  if weight < 0.0 then invalid_arg "Model.add_pos_part: negative weight";
  let y = add_var ?name ~lb:0.0 t in
  (* y >= e  <=>  e - y <= 0; the defining row is named after the
     auxiliary variable *)
  let rname = t.vars.(y).vname ^ "_def" in
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
         ~name:(vname ^ "_def" ^ string_of_int i)
         t (Lin_expr.sub e (Lin_expr.var z)) Le 0.0)
  in
  List.iteri bound es;
  add_to_objective t (Lin_expr.term weight z);
  z

let num_vars t = t.nvars

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

(* Each row's raw terms are merged in one dense scratch: [acc.(v)] holds
   the row's sum for [v] while [v]'s stamp is the row's number, and is
   reset to 0.0 on a row's first term for [v], so duplicates are summed in
   the expression's stored order starting from 0.0.  The merged non-zero
   terms are written to the row's arrays in first-appearance order; the
   CSC arrays are their transpose (rows ascending per column), and the row
   arrays are then rewritten in place as the transpose of those (columns
   ascending per row).  No sort, no table.  The scratch is two arrays:
   [acc], and [ints] holding the stamps (row + 1, 0 for none), then the
   column counts, then the row fill positions. *)
let compile (t : t) =
  let nvars = t.nvars and nrows = t.nrows in
  let obj = Array.make nvars 0.0 in
  Lin_expr.iter
    (fun c v ->
      if v < 0 || v >= nvars then invalid_arg "Model.compile: objective references unknown variable";
      obj.(v) <- obj.(v) +. c)
    t.obj;
  let acc = Array.make nvars 0.0 and ints = Array.make ((2 * nvars) + nrows) 0 in
  let counts = nvars and fills = 2 * nvars in
  let row_sense = Array.make nrows Le and rhs = Array.make nrows 0.0 in
  let row_names = Array.make nrows "" in
  let row_cols = Array.make nrows [||] and row_coefs = Array.make nrows [||] in
  let touched = ref (Array.make 64 0) and ntouched = ref 0 and row = ref 0 in
  let merge c v =
    let i = !row in
    if v < 0 || v >= nvars then
      invalid_arg
        (Printf.sprintf "Model.compile: row %s references unknown variable %d" row_names.(i) v);
    if ints.(v) <> i + 1 then begin
      ints.(v) <- i + 1;
      acc.(v) <- 0.0;
      if !ntouched = Array.length !touched then begin
        let bigger = Array.make (2 * !ntouched) 0 in
        Array.blit !touched 0 bigger 0 !ntouched;
        touched := bigger
      end;
      !touched.(!ntouched) <- v;
      incr ntouched
    end;
    acc.(v) <- acc.(v) +. c
  in
  List.iteri
    (fun i r ->
      row := i;
      row_sense.(i) <- r.rsense;
      rhs.(i) <- r.rrhs;
      row_names.(i) <- r.rname;
      ntouched := 0;
      Lin_expr.iter merge r.expr;
      let touched = !touched in
      let len = ref 0 in
      for k = 0 to !ntouched - 1 do
        if acc.(touched.(k)) <> 0.0 then incr len
      done;
      let cols = Array.make !len 0 and coefs = Array.make !len 0.0 in
      len := 0;
      for k = 0 to !ntouched - 1 do
        let v = touched.(k) in
        let c = acc.(v) in
        if c <> 0.0 then begin
          cols.(!len) <- v;
          coefs.(!len) <- c;
          ints.(counts + v) <- ints.(counts + v) + 1;
          incr len
        end
      done;
      row_cols.(i) <- cols;
      row_coefs.(i) <- coefs)
    (List.rev t.rows);
  (* packed CSC: col_ptr.(v) .. col_ptr.(v+1)-1 index into col_ind/col_val *)
  let col_ptr = Array.make (nvars + 1) 0 in
  for v = 0 to nvars - 1 do
    col_ptr.(v + 1) <- col_ptr.(v) + ints.(counts + v)
  done;
  let nnz = col_ptr.(nvars) in
  let col_ind = Array.make nnz 0 and col_val = Array.make nnz 0.0 in
  (* the column counts become each column's next free slot *)
  Array.blit col_ptr 0 ints counts nvars;
  for i = 0 to nrows - 1 do
    let cols = row_cols.(i) and coefs = row_coefs.(i) in
    for k = 0 to Array.length cols - 1 do
      let slot = ints.(counts + cols.(k)) in
      col_ind.(slot) <- i;
      col_val.(slot) <- coefs.(k);
      ints.(counts + cols.(k)) <- slot + 1
    done
  done;
  for v = 0 to nvars - 1 do
    for k = col_ptr.(v) to col_ptr.(v + 1) - 1 do
      let i = col_ind.(k) in
      let slot = ints.(fills + i) in
      row_cols.(i).(slot) <- v;
      row_coefs.(i).(slot) <- col_val.(k);
      ints.(fills + i) <- slot + 1
    done
  done;
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

let objective_value std x =
  let acc = ref std.obj_offset in
  for j = 0 to std.nvars - 1 do
    acc := !acc +. (std.obj.(j) *. x.(j))
  done;
  !acc

let check_solution std x =
  let tol = 1e-6 in
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
