type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type options = {
  time_limit : float;
  node_limit : int;
  gap_rel : float;
  gap_abs : float;
  stall_node_limit : int;
  initial : float array option;
  root_basis : Simplex.warm_basis option;
}

let default_options =
  {
    time_limit = infinity;
    node_limit = 100_000;
    gap_rel = 1e-9;
    gap_abs = 1e-6;
    stall_node_limit = 0;
    initial = None;
    root_basis = None;
  }

(* Integrality tolerance on LP values. *)
let int_tol = 1e-6

type seed_status = Seed_none | Seed_accepted | Seed_rejected

type outcome = {
  status : status;
  solution : float array option;
  objective : float;
  best_bound : float;
  gap : float;
  nodes : int;
  lp_iterations : int;
  warm_started_nodes : int;
  dual_restarted_nodes : int;
  dual_pivots : int;
  bland_pivots : int;
  seed : seed_status;
  elapsed : float;
}

(* ---------------------------------------------------------------- *)
(* Minimal binary min-heap keyed by node bound.                      *)

module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable len : int; dummy : float * 'a }

  let create dummy = { data = [||]; len = 0; dummy }

  let is_empty h = h.len = 0

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h key v =
    if h.len = Array.length h.data then begin
      let cap = max 16 (2 * h.len) in
      let bigger = Array.make cap h.dummy in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- (key, v);
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
          if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            swap h !i !smallest;
            i := !smallest
          end
          else continue := false
        done
      end;
      (* clear the vacated slot: a popped node's bound arrays (and basis
         snapshot) must become collectable once its subtree is drained *)
      h.data.(h.len) <- h.dummy;
      Some top
    end

  let min_key h = if h.len = 0 then None else Some (fst h.data.(0))
end

(* ---------------------------------------------------------------- *)

type node = {
  nlb : float array;
  nub : float array;
  depth : int;
  wb : Simplex.warm_basis option;  (* parent's optimal basis *)
}

let fractionality v = Float.abs (v -. Float.round v)

(* Most-fractional branching: [fractionality] is the distance to the nearest
   integer, so maximizing it picks the variable closest to half-integral. *)
let pick_branch_var (std : Model.std) x =
  let best = ref (-1) and best_score = ref int_tol in
  for j = 0 to std.nvars - 1 do
    if std.integer.(j) then begin
      let score = fractionality x.(j) in
      if score > !best_score then begin
        best := j;
        best_score := score
      end
    end
  done;
  if !best < 0 then None else Some !best

(* Adjacent parallel integer columns: [dearer.(j) = j + 1] when columns
   [j] and [j + 1] are both integer with the same constraint entries and
   [j] is strictly cheaper, as the two columns of a bound split are;
   otherwise -1.  Shifting a unit from [j + 1] to [j] changes no row and
   lowers the objective, so inside any node every optimum has [x_j] at its
   upper bound or [x_(j+1)] at its lower one. *)
let dearer_twins (std : Model.std) =
  let p = std.col_ptr in
  let parallel j k =
    let len = p.(j + 1) - p.(j) in
    len = p.(k + 1) - p.(k)
    &&
    let rec same u =
      u = len
      || std.col_ind.(p.(j) + u) = std.col_ind.(p.(k) + u)
         && std.col_val.(p.(j) + u) = std.col_val.(p.(k) + u)
         && same (u + 1)
    in
    same 0
  in
  Array.init std.nvars (fun j ->
      let k = j + 1 in
      if
        k < std.nvars && std.integer.(j) && std.integer.(k) && std.obj.(j) < std.obj.(k)
        && parallel j k
      then k
      else -1)

let integral (std : Model.std) x =
  let ok = ref true in
  for j = 0 to std.nvars - 1 do
    if std.integer.(j) && fractionality x.(j) > int_tol then ok := false
  done;
  !ok

let tighten_integer_bounds (std : Model.std) lb ub =
  for j = 0 to std.nvars - 1 do
    if std.integer.(j) then begin
      if Float.is_finite lb.(j) then lb.(j) <- Float.ceil (lb.(j) -. 1e-9);
      if Float.is_finite ub.(j) then ub.(j) <- Float.floor (ub.(j) +. 1e-9)
    end
  done

let solve ?(options = default_options) (std : Model.std) =
  let start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. start in
  let incumbent = ref None and incumbent_obj = ref infinity in
  let nodes = ref 0 and lp_iters = ref 0 and warm_nodes = ref 0 in
  let dual_nodes = ref 0 and dual_pivots = ref 0 in
  let bland_pivots = ref 0 in
  (* every node LP is the same shape, so one workspace serves the whole
     tree: the solver's per-node allocations collapse to O(1) arrays.  The
     plunged child is processed right after its parent, so its solve
     restarts in the parent's final solver state, factors included; a node
     popped from the heap later refactorizes from its stored basis instead
     (still far cheaper than a cold phase-1 start). *)
  let lp_ws = Simplex.create_workspace () in
  let inexact = ref false in
  (* an LP node hit its iteration limit: optimality can no longer be proven *)
  let dummy_node = { nlb = [||]; nub = [||]; depth = 0; wb = None } in
  let open_nodes = Heap.create (0.0, dummy_node) in
  let dearer = dearer_twins std in
  let cheaper = Array.make std.nvars (-1) in
  Array.iteri (fun j k -> if k >= 0 then cheaper.(k) <- j) dearer;
  let root_lb = Array.copy std.lb and root_ub = Array.copy std.ub in
  tighten_integer_bounds std root_lb root_ub;
  let last_improve = ref 0 in
  let update_incumbent x obj =
    if obj < !incumbent_obj -. 1e-12 then begin
      incumbent := Some x;
      incumbent_obj := obj;
      last_improve := !nodes
    end
  in
  let gap_closed bound =
    Float.is_finite !incumbent_obj
    && (!incumbent_obj -. bound <= options.gap_abs
        || !incumbent_obj -. bound
           <= options.gap_rel *. Float.max 1.0 (Float.abs !incumbent_obj))
  in
  let unbounded = ref false in
  (* Node selection is best-bound with depth-first plunging: after branching,
     the child on the rounding side of the fractional variable is explored
     immediately (the plunge stack), which finds integral incumbents far
     faster than pure best-first on near-integral allocation problems. *)
  let plunge : (float * node) list ref = ref [] in
  let process node =
    incr nodes;
    (match node.wb with Some _ -> incr warm_nodes | None -> ());
    match Simplex.solve ~ws:lp_ws ?basis:node.wb ~lb:node.nlb ~ub:node.nub std with
    | Simplex.Infeasible _ -> ()
    | Simplex.Unbounded -> unbounded := true
    | Simplex.Iteration_limit _ -> inexact := true
    | Simplex.Optimal
        { x; obj; iterations; dual_iterations; bland_iterations; basis = final_basis; _ } ->
      lp_iters := !lp_iters + iterations;
      bland_pivots := !bland_pivots + bland_iterations;
      if dual_iterations > 0 then begin
        incr dual_nodes;
        dual_pivots := !dual_pivots + dual_iterations
      end;
      if obj < !incumbent_obj -. options.gap_abs then begin
        if integral std x then begin
          (* round off the tiny fractional noise before storing *)
          let y = Array.copy x in
          for j = 0 to std.nvars - 1 do
            if std.integer.(j) then y.(j) <- Float.round y.(j)
          done;
          update_incumbent y obj
        end
        else begin
          match pick_branch_var std x with
          | None -> ()
          | Some j ->
            (* both children share this node's optimal basis snapshot *)
            let wb = Some final_basis in
            let v = x.(j) in
            let down_ub = Array.copy node.nub in
            down_ub.(j) <- Float.floor v;
            let up_lb = Array.copy node.nlb in
            up_lb.(j) <- Float.ceil v;
            (* below its upper bound, a cheaper twin leaves its dearer
               twin at the lower bound; above its lower bound, a dearer
               twin needs its cheaper one at the upper bound: every
               optimum of this node stays in a child *)
            let k = dearer.(j) and i = cheaper.(j) in
            if k >= 0 then down_ub.(k) <- node.nlb.(k);
            if i >= 0 then up_lb.(i) <- node.nub.(i);
            let down_ok = Float.floor v >= node.nlb.(j) -. 1e-9 in
            let up_ok = Float.ceil v <= node.nub.(j) +. 1e-9 in
            let down = { nlb = node.nlb; nub = down_ub; depth = node.depth + 1; wb } in
            let up = { nlb = up_lb; nub = node.nub; depth = node.depth + 1; wb } in
            let frac = v -. Float.floor v in
            let near, near_ok, far, far_ok =
              if frac < 0.5 then (down, down_ok, up, up_ok)
              else (up, up_ok, down, down_ok)
            in
            if far_ok then Heap.push open_nodes obj far;
            if near_ok then plunge := (obj, near) :: !plunge
        end
      end
      else if obj < !incumbent_obj then
        (* within the absolute gap of the incumbent: not searched, but
           left open so that [best_bound] still counts its bound *)
        Heap.push open_nodes obj node
  in
  let seed_status = ref Seed_none in
  (match options.initial with
  | Some x0 when Array.length x0 = std.nvars && Model.check_solution std x0 = Ok () ->
    seed_status := Seed_accepted;
    update_incumbent (Array.copy x0) (Model.objective_value std x0)
  | Some _ -> seed_status := Seed_rejected
  | None -> ());
  (let root = { nlb = root_lb; nub = root_ub; depth = 0; wb = options.root_basis } in
   (* an unprocessed root stays open, so nothing is claimed proven *)
   if options.node_limit > 0 then process root
   else Heap.push open_nodes neg_infinity root);
  let max_plunge_depth = 100 in
  let stop = ref !unbounded in
  while not !stop do
    if elapsed () > options.time_limit || !nodes >= options.node_limit then stop := true
    else if
      (* stalled: the incumbent has not improved for [stall_node_limit]
         consecutive nodes, while a search that keeps finding better
         allocations keeps running *)
      options.stall_node_limit > 0
      && !incumbent <> None
      && !nodes - !last_improve >= options.stall_node_limit
    then stop := true
    else begin
      (match !plunge with
      | (bound, node) :: rest ->
        plunge := rest;
        (* a node whose bound is within the gap is not searched but stays
           open: dropping it would let [best_bound] collapse onto the
           incumbent and report a gap the search never proved *)
        if bound >= !incumbent_obj then ()
        else if gap_closed bound || node.depth > max_plunge_depth then
          Heap.push open_nodes bound node
        else process node
      | [] -> (
        match Heap.pop open_nodes with
        | None -> stop := true
        | Some (bound, node) ->
          (* best-first: every remaining node is at least this bad *)
          if bound >= !incumbent_obj then stop := true
          else if gap_closed bound then begin
            Heap.push open_nodes bound node;
            stop := true
          end
          else process node));
      if !unbounded then stop := true
    end
  done;
  (* drain the plunge stack into the heap so the final bound is correct *)
  List.iter (fun (bound, node) -> Heap.push open_nodes bound node) !plunge;
  let best_bound =
    if !unbounded then neg_infinity
    else
      match Heap.min_key open_nodes with
      | Some b -> Float.min b !incumbent_obj
      | None -> !incumbent_obj
  in
  let status =
    if !unbounded then Unbounded
    else
      match !incumbent with
      | Some _ ->
        if Heap.is_empty open_nodes && not !inexact then Optimal
        else if gap_closed best_bound && not !inexact then Optimal
        else Feasible
      | None ->
        if Heap.is_empty open_nodes && not !inexact then Infeasible else Unknown
  in
  {
    status;
    solution = !incumbent;
    objective = !incumbent_obj;
    best_bound;
    gap = (if !incumbent = None then infinity else !incumbent_obj -. best_bound);
    nodes = !nodes;
    lp_iterations = !lp_iters;
    warm_started_nodes = !warm_nodes;
    dual_restarted_nodes = !dual_nodes;
    dual_pivots = !dual_pivots;
    bland_pivots = !bland_pivots;
    seed = !seed_status;
    elapsed = elapsed ();
  }
