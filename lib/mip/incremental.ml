(* Name-keyed diff/patch kernel between two compiled models, plus the basis
   and incumbent mapping that makes cross-round warm restarts possible.

   Matching is by variable/row *name*, not index: the formulation layer
   guarantees stable names across rounds (class keys, reservation ids), so
   index churn from entities appearing or disappearing does not inflate the
   diff.  Duplicate names within one model are matched by occurrence order,
   which keeps the diff well-defined on arbitrary inputs. *)

type stats = {
  vars_added : int;
  vars_removed : int;
  rows_added : int;
  rows_removed : int;
  bounds_changed : int;
  obj_changed : int;
  rhs_changed : int;
  coefs_changed : int;
  structure_identical : bool;
}

let total_changes s =
  s.vars_added + s.vars_removed + s.rows_added + s.rows_removed + s.bounds_changed
  + s.obj_changed + s.rhs_changed + s.coefs_changed

let pp_stats ppf s =
  Format.fprintf ppf "vars +%d/-%d rows +%d/-%d bounds %d obj %d rhs %d coefs %d%s"
    s.vars_added s.vars_removed s.rows_added s.rows_removed s.bounds_changed s.obj_changed
    s.rhs_changed s.coefs_changed
    (if s.structure_identical then " (same structure)" else "")

(* Per-entity final values are stored outright (not as option patches): the
   arrays are tiny next to the model itself and make [apply] a single pass. *)

type var_spec = {
  vsrc : int;  (* prev var index, or -1 when added *)
  vname : string;
  vlb : float;
  vub : float;
  vinteger : bool;
  vobj : float;
}

(* [Translated]: the row's content equals the prev row's entries translated
   to next indices (removed-variable entries dropped) and re-sorted — apply
   rebuilds it from prev.  [Content]: anything else, stored verbatim. *)
type row_body = Translated | Content of { cols : int array; coefs : float array }

type row_spec = {
  rsrc : int;  (* prev row index, or -1 when added *)
  rname : string;
  rsense : Model.sense;
  rrhs : float;
  rbody : row_body;
}

type t = {
  nvars : int;
  nrows : int;
  obj_offset : float;
  vars : var_spec array;
  rows : row_spec array;
  var_dst : int array;  (* prev var -> next var, -1 when removed *)
  row_dst : int array;  (* prev row -> next row, -1 when removed *)
  dstats : stats;
}

let stats t = t.dstats

(* Match [next_names] against [prev_names] by name, duplicates in occurrence
   order.  Returns (src per next index, dst per prev index). *)
let match_names prev_names next_names =
  let np = Array.length prev_names and nn = Array.length next_names in
  let pool : (string, int list ref) Hashtbl.t = Hashtbl.create (2 * np) in
  (* build FIFO pools in descending index order so list heads are ascending *)
  for i = np - 1 downto 0 do
    match Hashtbl.find_opt pool prev_names.(i) with
    | Some l -> l := i :: !l
    | None -> Hashtbl.replace pool prev_names.(i) (ref [ i ])
  done;
  let src = Array.make nn (-1) and dst = Array.make np (-1) in
  for j = 0 to nn - 1 do
    match Hashtbl.find_opt pool next_names.(j) with
    | Some ({ contents = i :: rest } as l) ->
      l := rest;
      src.(j) <- i;
      dst.(i) <- j
    | Some { contents = [] } | None -> ()
  done;
  (src, dst)

(* Prev row entries translated to next variable indices (removed variables
   dropped), sorted ascending — the order a fresh compile produces, since
   row terms are normalized by variable index. *)
let translate_row (prev : Model.std) var_dst r =
  let cols = prev.Model.row_cols.(r) and coefs = prev.Model.row_coefs.(r) in
  let kept = ref [] in
  for k = Array.length cols - 1 downto 0 do
    let d = var_dst.(cols.(k)) in
    if d >= 0 then kept := (d, coefs.(k)) :: !kept
  done;
  let arr = Array.of_list !kept in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  arr

let same_content translated cols coefs =
  Array.length translated = Array.length cols
  && begin
       let ok = ref true in
       Array.iteri
         (fun k (c, v) -> if c <> cols.(k) || v <> coefs.(k) then ok := false)
         translated;
       !ok
     end

let diff ~(prev : Model.std) ~(next : Model.std) =
  let var_src, var_dst = match_names prev.Model.var_names next.Model.var_names in
  let row_src, row_dst = match_names prev.Model.row_names next.Model.row_names in
  let vars_added = ref 0 and bounds_changed = ref 0 and obj_changed = ref 0 in
  let vars =
    Array.init next.Model.nvars (fun j ->
        let s = var_src.(j) in
        if s < 0 then incr vars_added
        else begin
          if prev.Model.lb.(s) <> next.Model.lb.(j) || prev.Model.ub.(s) <> next.Model.ub.(j)
          then incr bounds_changed;
          if prev.Model.obj.(s) <> next.Model.obj.(j) then incr obj_changed
        end;
        {
          vsrc = s;
          vname = next.Model.var_names.(j);
          vlb = next.Model.lb.(j);
          vub = next.Model.ub.(j);
          vinteger = next.Model.integer.(j);
          vobj = next.Model.obj.(j);
        })
  in
  let rows_added = ref 0 and rhs_changed = ref 0 and coefs_changed = ref 0 in
  let rows =
    Array.init next.Model.nrows (fun i ->
        let s = row_src.(i) in
        let body =
          if s < 0 then begin
            incr rows_added;
            Content
              {
                cols = Array.copy next.Model.row_cols.(i);
                coefs = Array.copy next.Model.row_coefs.(i);
              }
          end
          else begin
            if
              prev.Model.rhs.(s) <> next.Model.rhs.(i)
              || prev.Model.row_sense.(s) <> next.Model.row_sense.(i)
            then incr rhs_changed;
            let translated = translate_row prev var_dst s in
            if same_content translated next.Model.row_cols.(i) next.Model.row_coefs.(i) then
              Translated
            else begin
              incr coefs_changed;
              Content
                {
                  cols = Array.copy next.Model.row_cols.(i);
                  coefs = Array.copy next.Model.row_coefs.(i);
                }
            end
          end
        in
        {
          rsrc = s;
          rname = next.Model.row_names.(i);
          rsense = next.Model.row_sense.(i);
          rrhs = next.Model.rhs.(i);
          rbody = body;
        })
  in
  if prev.Model.obj_offset <> next.Model.obj_offset then incr obj_changed;
  let identity src n = Array.length src = n && Array.for_all (fun x -> x >= 0) src
                       && Array.for_all2 ( = ) src (Array.init (Array.length src) Fun.id) in
  let structure_identical =
    next.Model.nvars = prev.Model.nvars
    && next.Model.nrows = prev.Model.nrows
    && identity var_src prev.Model.nvars
    && identity row_src prev.Model.nrows
  in
  {
    nvars = next.Model.nvars;
    nrows = next.Model.nrows;
    obj_offset = next.Model.obj_offset;
    vars;
    rows;
    var_dst;
    row_dst;
    dstats =
      {
        vars_added = !vars_added;
        vars_removed = Array.fold_left (fun a d -> if d < 0 then a + 1 else a) 0 var_dst;
        rows_added = !rows_added;
        rows_removed = Array.fold_left (fun a d -> if d < 0 then a + 1 else a) 0 row_dst;
        bounds_changed = !bounds_changed;
        obj_changed = !obj_changed;
        rhs_changed = !rhs_changed;
        coefs_changed = !coefs_changed;
        structure_identical;
      };
  }

let apply ~(prev : Model.std) t =
  if
    Array.length t.var_dst <> prev.Model.nvars || Array.length t.row_dst <> prev.Model.nrows
  then invalid_arg "Incremental.apply: diff was computed against a different model";
  let nvars = t.nvars and nrows = t.nrows in
  let row_cols = Array.make nrows [||] and row_coefs = Array.make nrows [||] in
  for i = 0 to nrows - 1 do
    match t.rows.(i).rbody with
    | Content { cols; coefs } ->
      row_cols.(i) <- Array.copy cols;
      row_coefs.(i) <- Array.copy coefs
    | Translated ->
      let entries = translate_row prev t.var_dst t.rows.(i).rsrc in
      row_cols.(i) <- Array.map fst entries;
      row_coefs.(i) <- Array.map snd entries
  done;
  (* column-major views derived exactly as Model.compile derives them: size
     by count, then fill in row order *)
  let col_count = Array.make nvars 0 in
  Array.iter (fun cols -> Array.iter (fun v -> col_count.(v) <- col_count.(v) + 1) cols) row_cols;
  let col_ptr = Array.make (nvars + 1) 0 in
  for v = 0 to nvars - 1 do
    col_ptr.(v + 1) <- col_ptr.(v) + col_count.(v)
  done;
  let col_ind = Array.make col_ptr.(nvars) 0 in
  let col_val = Array.make col_ptr.(nvars) 0.0 in
  let col_fill = Array.blit col_ptr 0 col_count 0 nvars; col_count in
  for i = 0 to nrows - 1 do
    let cols = row_cols.(i) and coefs = row_coefs.(i) in
    for k = 0 to Array.length cols - 1 do
      let v = cols.(k) in
      let f = col_fill.(v) in
      col_ind.(f) <- i;
      col_val.(f) <- coefs.(k);
      col_fill.(v) <- f + 1
    done
  done;
  {
    Model.nvars;
    nrows;
    obj = Array.map (fun v -> v.vobj) t.vars;
    obj_offset = t.obj_offset;
    lb = Array.map (fun v -> v.vlb) t.vars;
    ub = Array.map (fun v -> v.vub) t.vars;
    integer = Array.map (fun v -> v.vinteger) t.vars;
    row_sense = Array.map (fun r -> r.rsense) t.rows;
    rhs = Array.map (fun r -> r.rrhs) t.rows;
    col_ptr;
    col_ind;
    col_val;
    row_cols;
    row_coefs;
    var_names = Array.map (fun v -> v.vname) t.vars;
    row_names = Array.map (fun r -> r.rname) t.rows;
  }

(* ------------------------------------------------------------------ *)
(* Basis mapping                                                       *)

let prev_nvars t = Array.length t.var_dst
let prev_nrows t = Array.length t.row_dst

(* prev column (structural or slack) -> next column, -1 when departed *)
let col_dst t c =
  let pn = prev_nvars t in
  if c < pn then t.var_dst.(c)
  else begin
    let d = t.row_dst.(c - pn) in
    if d < 0 then -1 else t.nvars + d
  end

let map_basis t ~(prev_basis : Simplex.warm_basis) =
  let pn = prev_nvars t and pm = prev_nrows t in
  let ntotal = t.nvars + t.nrows in
  if
    Array.length prev_basis.Simplex.wcols <> pm
    || Array.length prev_basis.Simplex.wstatus <> pn + pm
  then None
  else begin
    let wstatus = Array.make ntotal Simplex.At_lower in
    (* surviving nonbasic columns keep their resting bound; the simplex
       restart re-normalizes against the new bounds *)
    for c = 0 to pn + pm - 1 do
      let d = col_dst t c in
      if d >= 0 then
        match prev_basis.Simplex.wstatus.(c) with
        | Simplex.Basic -> ()  (* set below iff actually installed *)
        | s -> wstatus.(d) <- s
    done;
    let wcols = Array.make t.nrows (-1) in
    let used = Array.make ntotal false in
    let reused = ref 0 in
    (* first pass: install every surviving basic column in its surviving
       row.  A carried basic column can itself be a slack — possibly the
       slack of a *different* next row — so repairs must wait until all
       carries are known or they could collide with one. *)
    for i = 0 to t.nrows - 1 do
      let src = t.rows.(i).rsrc in
      let candidate = if src < 0 then -1 else col_dst t prev_basis.Simplex.wcols.(src) in
      if candidate >= 0 && not used.(candidate) then begin
        wcols.(i) <- candidate;
        used.(candidate) <- true;
        incr reused
      end
    done;
    (* second pass: new rows, and rows whose basic column departed, are
       repaired with their own slack when it is free, else any free slack.
       The result is always duplicate-free; in the rare repair-with-foreign-
       slack case the basis can come out singular, which [Simplex.try_warm]
       detects (falling back to a cold start) — slower, never wrong. *)
    let next_free = ref 0 in
    for i = 0 to t.nrows - 1 do
      if wcols.(i) < 0 then begin
        let own = t.nvars + i in
        let c =
          if not used.(own) then own
          else begin
            while used.(t.nvars + !next_free) do
              incr next_free
            done;
            t.nvars + !next_free
          end
        in
        wcols.(i) <- c;
        used.(c) <- true
      end
    done;
    Array.iter (fun c -> wstatus.(c) <- Simplex.Basic) wcols;
    (* the factorization survives only when the basis matrix is untouched:
       same index spaces and no coefficient changes (rhs/bound/objective
       deltas do not enter B) *)
    let wfac =
      if t.dstats.structure_identical && t.dstats.coefs_changed = 0 then
        prev_basis.Simplex.wfac
      else None
    in
    Some ({ Simplex.wcols; wstatus; wfac }, !reused)
  end

let map_solution t x =
  if Array.length x < prev_nvars t then
    invalid_arg "Incremental.map_solution: solution does not match the diffed model";
  Array.init t.nvars (fun j ->
      let { vsrc; vlb; vub; _ } = t.vars.(j) in
      (* surviving values are clamped into the new bounds (a shrunk class
         lowers assignment-count ubs); new variables start at the bound
         closest to zero *)
      let v = if vsrc >= 0 then x.(vsrc) else 0.0 in
      Float.max vlb (Float.min vub v))
