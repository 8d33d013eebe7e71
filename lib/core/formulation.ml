module Model = Ras_mip.Model
module Lin = Ras_mip.Lin_expr
module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware

type params = {
  move_cost_unused : float;
  move_cost_in_use : float;
  spread_penalty : float;
  buffer_cost : float;
  capacity_slack_cost : float;
  affinity_slack_cost : float;
  assignment_cost : float;
  wear_penalty : float;
}

let default_params =
  {
    move_cost_unused = 1.0;
    move_cost_in_use = 10.0;
    spread_penalty = 40.0;
    buffer_cost = 8.0;
    capacity_slack_cost = 10_000.0;
    affinity_slack_cost = 2_000.0;
    (* a tiny per-assigned-server cost keeps optima from over-allocating:
       without it, parking free servers in a reservation is costless and LP
       vertices become arbitrarily generous *)
    assignment_cost = 0.01;
    (* section 5.2: cost per wear-bucket level of giving a worn-flash server
       to an IO-heavy reservation *)
    wear_penalty = 2.0;
  }

type pair = {
  cls : Symmetry.cls;
  res : Reservation.t;
  held : Model.var;
  added : Model.var;
  current : int;
  rru : float;
  res_index : int;
}

let count x p =
  (if p.held >= 0 then x.(p.held) else 0.0) +. if p.added >= 0 then x.(p.added) else 0.0

(* The pair's columns with coefficient [c], consed onto [acc]. *)
let push_terms c p acc =
  let acc = if p.added >= 0 then (c, p.added) :: acc else acc in
  if p.held >= 0 then (c, p.held) :: acc else acc

type t = {
  model : Model.t;
  symmetry : Symmetry.t;
  reservations : Reservation.t list;
  pairs : pair array;
  res_pairs : int array array;
  class_pairs : int array array;
  supply_rows : (int * Symmetry.cls) list;
  capacity_slack : (int * Model.var) list;
  buffer_var : (int * Model.var) list;
  aux_defs : (Model.var * Lin.t list) list;
      (** every auxiliary variable with the expressions it upper-bounds:
          its optimal value given the assignment variables is
          [max(0, max_i e_i)]; definitions are in ascending variable order
          and only reference earlier variables, so a full solution vector
          can be reconstructed from assignment counts alone *)
  params : params;
  rack_level : bool;
}

let build ?(params = default_params) ?(rack_level = false) (symmetry : Symmetry.t) =
  let reservations = symmetry.Symmetry.snapshot.Snapshot.reservations in
  let model = Model.create () in
  (* expression (1)'s constant: the move cost of every server held now *)
  let offset = ref 0.0 in
  let pairs = ref [] and npairs = ref 0 in
  (* pair indices per reservation position and per class, each list in
     descending creation order *)
  let res_pairs = Array.make (List.length reservations) [] in
  let class_pairs = Array.make (Symmetry.num_classes symmetry) [] in
  (* names are keyed by the stable class key, never the dense class index:
     a name identifies the same logical class in every snapshot.  Each is
     formatted once; the per-pair names are concatenations of it. *)
  let class_names = Array.map Symmetry.class_name symmetry.Symmetry.classes in
  (* each reservation's RRU per hardware subtype, read once per subtype
     rather than once per class *)
  let res_array = Array.of_list reservations in
  let owners = Array.map Reservation.owner res_array in
  let rru_by_hw =
    Array.map (fun hw -> Array.map (fun res -> res.Reservation.rru_of hw) res_array) Hw.catalog
  in
  (* assignment variables.  Expression (1), stability, costs
     [M_s * max(0, N0 - n)] for a pair whose reservation holds N0 > 0 of
     the class's servers now: convex and piecewise linear in the count,
     so the count is split at N0 into two bounded integer columns, the
     servers kept ([held], at most N0, each costing M_s less) and the
     servers added past N0 ([added]), and M_s * N0 joins the objective's
     constant.  The cheaper [held] fills first, so the split costs
     exactly the term, with no auxiliary variable or row.  A pair with
     nothing held, or whose move cost is 0, keeps one count column. *)
  let column ~prefix ~class_name ~rid ~ub ~cost =
    let name = String.concat "" [ prefix; class_name; "_r"; string_of_int rid ] in
    let v = Model.add_var ~name ~lb:0.0 ~ub:(float_of_int ub) ~kind:Model.Integer model in
    Model.add_to_objective model (Lin.term cost v);
    v
  in
  Array.iter
    (fun (cls : Symmetry.cls) ->
      let rru_of_res = rru_by_hw.(cls.Symmetry.hw) in
      let class_name = class_names.(cls.Symmetry.index) in
      let size = Symmetry.size cls in
      let move_cost =
        if cls.Symmetry.in_use then params.move_cost_in_use else params.move_cost_unused
      in
      Array.iteri
        (fun res_index res ->
          let rru = rru_of_res.(res_index) in
          if rru > 0.0 then begin
            let rid = res.Reservation.id in
            let current =
              if move_cost = 0.0 then 0 else Symmetry.current_count symmetry cls owners.(res_index)
            in
            if current > 0 && move_cost < 0.0 then invalid_arg "Formulation.build: negative move cost";
            let cost =
              params.assignment_cost
              +. (params.wear_penalty *. res.Reservation.io_intensity *. float_of_int cls.Symmetry.attr)
            in
            let held =
              if current = 0 then -1
              else begin
                offset := !offset +. (move_cost *. float_of_int current);
                column ~prefix:"held_" ~class_name ~rid ~ub:current ~cost:(cost -. move_cost)
              end
            in
            let added =
              if current = size then -1
              else
                column
                  ~prefix:(if current = 0 then "n_" else "new_")
                  ~class_name ~rid ~ub:(size - current) ~cost
            in
            let i = !npairs in
            incr npairs;
            pairs := { cls; res; held; added; current; rru; res_index } :: !pairs;
            res_pairs.(res_index) <- i :: res_pairs.(res_index);
            class_pairs.(cls.Symmetry.index) <- i :: class_pairs.(cls.Symmetry.index)
          end)
        res_array)
    symmetry.Symmetry.classes;
  Model.add_to_objective model (Lin.constant !offset);
  let pairs = Array.of_list (List.rev !pairs) in
  (* expression (5): class supply *)
  let supply_rows = ref [] in
  Array.iteri
    (fun idx ps ->
      if ps <> [] then begin
        let e = Lin.of_terms (List.fold_left (fun acc i -> push_terms 1.0 pairs.(i) acc) [] ps) in
        let cls = symmetry.Symmetry.classes.(idx) in
        let row =
          Model.add_constraint
            ~name:("supply_" ^ class_names.(idx))
            model e Model.Le
            (float_of_int (Symmetry.size cls))
        in
        supply_rows := (row, cls) :: !supply_rows
      end)
    class_pairs;
  let capacity_slack = ref [] and buffer_var = ref [] in
  let aux_defs = ref [] in
  let pos_part ~name ~weight e =
    let v = Model.add_pos_part ~name model ~weight e in
    aux_defs := (v, [ e ]) :: !aux_defs;
    v
  in
  let max_over ~name ~weight es =
    let v = Model.add_max_over ~name model ~weight es in
    aux_defs := (v, es) :: !aux_defs;
    v
  in
  let slack_var ~name ~weight defs =
    let v = Model.add_var ~name ~lb:0.0 model in
    Model.add_to_objective model (Lin.term weight v);
    aux_defs := (v, defs) :: !aux_defs;
    v
  in
  (* a reservation's terms grouped by scope (MSB, datacenter or rack),
     ascending scope, each group's terms in reverse [terms] order; scopes
     below 0 are left out.  One scratch list per scope, shared by every
     reservation and emptied as its groups are read. *)
  let region = symmetry.Symmetry.region in
  let by_scope =
    Array.make
      (max region.Region.num_msbs
         (max region.Region.num_dcs (if rack_level then region.Region.num_racks else 0)))
      []
  in
  let group_terms terms ~scope_of =
    let used =
      List.fold_left
        (fun used p ->
          let g = scope_of p.cls in
          if g < 0 then used
          else begin
            let existing = by_scope.(g) in
            by_scope.(g) <- push_terms p.rru p existing;
            if existing = [] then g :: used else used
          end)
        [] terms
    in
    List.map
      (fun g ->
        let ts = by_scope.(g) in
        by_scope.(g) <- [];
        (g, Lin.of_terms ts))
      (List.sort Int.compare used)
  in
  List.iteri
    (fun res_index res ->
      let rid = res.Reservation.id in
      let terms = List.map (fun i -> pairs.(i)) res_pairs.(res_index) in
      let total = Lin.of_terms (List.fold_left (fun acc p -> push_terms p.rru p acc) [] terms) in
      let by_msb = group_terms terms ~scope_of:(fun c -> c.Symmetry.msb) in
      let cr = res.Reservation.capacity_rru in
      (* expressions (4) + (6): embedded correlated-failure buffer *)
      let z_term =
        if res.Reservation.embedded_buffer && region.Region.num_msbs > 1 then begin
          let z =
            max_over
              ~name:(Printf.sprintf "zbuf_r%d" rid)
              ~weight:params.buffer_cost
              (List.map snd by_msb)
          in
          buffer_var := (rid, z) :: !buffer_var;
          Lin.term (-1.0) z
        end
        else Lin.zero
      in
      (* capacity constraint, softened (§3.5.1) *)
      let slack =
        slack_var
          ~name:(Printf.sprintf "cap_slack_r%d" rid)
          ~weight:params.capacity_slack_cost
          [ Lin.sub (Lin.constant cr) (Lin.add total z_term) ]
      in
      capacity_slack := (rid, slack) :: !capacity_slack;
      ignore
        (Model.add_constraint
           ~name:(Printf.sprintf "capacity_r%d" rid)
           model
           (Lin.add (Lin.add total z_term) (Lin.var slack))
           Model.Ge cr);
      (* expression (3): MSB spread *)
      let alpha_f = res.Reservation.msb_spread_limit in
      List.iter
        (fun (msb, e) ->
          ignore
            (pos_part
               ~name:(String.concat "" [ "over_r"; string_of_int rid; "_m"; string_of_int msb ])
               ~weight:params.spread_penalty
               (Lin.sub e (Lin.constant (alpha_f *. cr)))))
        by_msb;
      (* paragraph 3.3.2: storage quorum spread - a hard (softened) cap on
         any MSB's fraction of the reservation's total capacity, so
         replicated stores keep quorum through an MSB loss *)
      (match res.Reservation.hard_msb_cap with
      | Some cap ->
        let neg_cap = -.cap in
        List.iter
          (fun (msb, e) ->
            (* one copy of [total] per row: the row is the slack's
               definition with the slack's term in front *)
            let excess = Lin.add e (Lin.scale neg_cap total) in
            let slack =
              slack_var
                ~name:(Printf.sprintf "quorum_slack_r%d_m%d" rid msb)
                ~weight:params.capacity_slack_cost [ excess ]
            in
            ignore
              (Model.add_constraint
                 ~name:(Printf.sprintf "quorum_r%d_m%d" rid msb)
                 model
                 (Lin.add (Lin.term (-1.0) slack) excess)
                 Model.Le 0.0))
          by_msb
      | None -> ());
      (* expression (2): rack spread, phase-2 goal *)
      (match (rack_level, res.Reservation.rack_spread_limit) with
      | true, Some alpha_k ->
        let by_rack =
          group_terms terms ~scope_of:(fun c ->
              match c.Symmetry.rack with Some r -> r | None -> -1)
        in
        List.iter
          (fun (rack, e) ->
            ignore
              (pos_part
                 ~name:(String.concat "" [ "overk_r"; string_of_int rid; "_k"; string_of_int rack ])
                 ~weight:params.spread_penalty
                 (Lin.sub e (Lin.constant (alpha_k *. cr)))))
          by_rack
      | _, _ -> ());
      (* expression (7): datacenter affinity, softened two-sided *)
      if res.Reservation.dc_affinity <> [] then begin
        let by_dc =
          group_terms terms ~scope_of:(fun c -> region.Region.msb_dc.(c.Symmetry.msb))
        in
        let theta = res.Reservation.affinity_tolerance in
        List.iter
          (fun (dc, target) ->
            let e = try List.assoc dc by_dc with Not_found -> Lin.zero in
            let s_lo =
              slack_var
                ~name:(Printf.sprintf "aff_lo_r%d_d%d" rid dc)
                ~weight:params.affinity_slack_cost
                [ Lin.sub (Lin.constant ((target -. theta) *. cr)) e ]
            in
            let s_hi =
              slack_var
                ~name:(Printf.sprintf "aff_hi_r%d_d%d" rid dc)
                ~weight:params.affinity_slack_cost
                [ Lin.sub e (Lin.constant ((target +. theta) *. cr)) ]
            in
            ignore
              (Model.add_constraint
                 ~name:(Printf.sprintf "affge_r%d_d%d" rid dc)
                 model (Lin.add e (Lin.var s_lo)) Model.Ge
                 ((target -. theta) *. cr));
            ignore
              (Model.add_constraint
                 ~name:(Printf.sprintf "affle_r%d_d%d" rid dc)
                 model (Lin.sub e (Lin.var s_hi)) Model.Le
                 ((target +. theta) *. cr)))
          res.Reservation.dc_affinity
      end)
    reservations;
  {
    model;
    symmetry;
    reservations;
    pairs;
    res_pairs = Array.map Array.of_list res_pairs;
    class_pairs = Array.map Array.of_list class_pairs;
    supply_rows = List.rev !supply_rows;
    capacity_slack = !capacity_slack;
    buffer_var = !buffer_var;
    aux_defs = List.rev !aux_defs;
    params;
    rack_level;
  }

(* Reconstruct a full solution vector from per-pair counts (indexed like
   [t.pairs]): auxiliary variables all take their cheapest feasible value
   [max(0, max_i e_i)]; definitions only reference earlier variables so one
   ascending pass suffices. *)
let encode_counts t counts =
  let vec = Array.make (Model.num_vars t.model) 0.0 in
  Array.iteri
    (fun i p ->
      let n = counts.(i) in
      let kept = Int.min n p.current in
      if p.held >= 0 then vec.(p.held) <- float_of_int kept;
      if p.added >= 0 then vec.(p.added) <- float_of_int (n - kept))
    t.pairs;
  List.iter
    (fun (v, exprs) ->
      let value =
        List.fold_left (fun acc e -> Float.max acc (Lin.eval e (fun i -> vec.(i)))) 0.0 exprs
      in
      vec.(v) <- value)
    t.aux_defs;
  vec

let encode t counts_of = encode_counts t (Array.map counts_of t.pairs)

let status_quo t =
  encode t (fun p -> Symmetry.current_count t.symmetry p.cls (Reservation.owner p.res))

(* Largest-remainder rounding of an LP-relaxation solution: per class, floor
   every count, then hand the class's remaining LP mass back to the pairs
   with the largest fractional parts, ties in [class_pairs] order.  Supply
   can only decrease, so the result is always feasible once auxiliaries are
   re-encoded. *)
let round_lp t lp_solution =
  let x i = Float.max 0.0 (count lp_solution t.pairs.(i)) in
  let floor i = Float.floor (x i +. 1e-9) in
  let remainder i = x i -. floor i in
  let counts = Array.init (Array.length t.pairs) (fun i -> int_of_float (floor i)) in
  Array.iter
    (fun ps ->
      let total_lp = Array.fold_left (fun acc i -> acc +. x i) 0.0 ps in
      let floor_sum = Array.fold_left (fun acc i -> acc + counts.(i)) 0 ps in
      let extra = int_of_float (Float.round total_lp) - floor_sum in
      let by_remainder = Array.copy ps in
      Array.stable_sort (fun a b -> compare (remainder b) (remainder a)) by_remainder;
      Array.iteri (fun k i -> if k < extra then counts.(i) <- counts.(i) + 1) by_remainder)
    t.class_pairs;
  encode_counts t counts

let num_assignment_vars t = Array.length t.pairs

type assignment = { counts : (Symmetry.cls * Reservation.t * int) list }

let decode t solution =
  let counts =
    List.filter_map
      (fun p ->
        let v = int_of_float (Float.round (count solution p)) in
        if v > 0 then Some (p.cls, p.res, v) else None)
      (Array.to_list t.pairs)
  in
  { counts }

let capacity_shortfalls t solution =
  List.filter_map
    (fun (rid, slack) ->
      let v = solution.(slack) in
      if v > 1e-6 then Some (rid, v) else None)
    t.capacity_slack

(* The repair passes' working state: servers per pair (indexed like
   [t.pairs]), servers used per class, and RRU per reservation position.
   Every move goes through [bump], which keeps the three in step. *)
type work = { count : int array; class_used : int array; res_total : float array }

let bump t w i delta =
  let p = t.pairs.(i) in
  w.count.(i) <- w.count.(i) + delta;
  w.class_used.(p.cls.Symmetry.index) <- w.class_used.(p.cls.Symmetry.index) + delta;
  w.res_total.(p.res_index) <- w.res_total.(p.res_index) +. (p.rru *. float_of_int delta)

(* RRU of pairs [ps], summed per group (MSB or datacenter) in [ps] order *)
let rru_by t w ps ~groups ~group =
  let load = Array.make groups 0.0 in
  Array.iter
    (fun i ->
      let p = t.pairs.(i) in
      let g = group p.cls in
      load.(g) <- load.(g) +. (p.rru *. float_of_int w.count.(i)))
    ps;
  load

let msb_of (cls : Symmetry.cls) = cls.Symmetry.msb

(* One-server moves within a reservation, shared by the two local searches:
   while [unfinished ()] and the last round moved a server, move one from a
   [source] pair holding servers to a pair whose class has free supply,
   taking the least [key] (first found on ties; [None] rejects the move),
   and keep the reservation's per-group [load] in step. *)
let swap_search t w load ~group my_pairs ~unfinished ~source ~key =
  let guard = ref 0 and progress = ref true in
  while unfinished () && !progress && !guard < 500 do
    progress := false;
    incr guard;
    let best = ref None in
    Array.iter
      (fun i_from ->
        if w.count.(i_from) > 0 && source t.pairs.(i_from) then
          Array.iter
            (fun i_to ->
              let pt = t.pairs.(i_to) in
              if w.class_used.(pt.cls.Symmetry.index) < Symmetry.size pt.cls then
                match (key t.pairs.(i_from) pt, !best) with
                | None, _ -> ()
                | Some k, Some (bk, _, _) when bk <= k -> ()
                | Some k, _ -> best := Some (k, i_from, i_to))
            my_pairs)
      my_pairs;
    match !best with
    | Some (_, i_from, i_to) ->
      let pf = t.pairs.(i_from) and pt = t.pairs.(i_to) in
      bump t w i_from (-1);
      bump t w i_to 1;
      load.(group pf.cls) <- load.(group pf.cls) -. pf.rru;
      load.(group pt.cls) <- load.(group pt.cls) +. pt.rru;
      progress := true
    | None -> ()
  done

(* A reservation's datacenter-affinity window, [(A - theta) C_r] to
   [(A + theta) C_r] per datacenter (0 to infinity where it declares no
   share). *)
let affinity_window t res =
  let num_dcs = t.symmetry.Symmetry.region.Region.num_dcs in
  let cr = res.Reservation.capacity_rru and theta = res.Reservation.affinity_tolerance in
  let bound ~side ~none =
    Array.init num_dcs (fun d ->
        match List.assoc_opt d res.Reservation.dc_affinity with
        | Some a -> side a theta *. cr
        | None -> none)
  in
  (bound ~side:( -. ) ~none:0.0, bound ~side:( +. ) ~none:infinity)

(* How far per-datacenter RRU lies outside the window, summed over
   datacenters in ascending order. *)
let affinity_violation (lo, hi) dc_rru =
  let v = ref 0.0 in
  Array.iteri
    (fun d x -> v := !v +. (Float.max 0.0 (lo.(d) -. x) +. Float.max 0.0 (x -. hi.(d))))
    dc_rru;
  !v

(* Spread local search: repeatedly move one server of the reservation out of
   its fullest MSB into an acceptable class with free supply in a less-loaded
   MSB, whenever that lowers the reservation's max-MSB capacity (expressions
   3/4/6 all improve) without taking it further outside its datacenter
   affinity window: the affinity search that runs next swaps only against
   free supply, so it cannot always move the server back. *)
let improve_spread t w =
  let region = t.symmetry.Symmetry.region in
  let num_msbs = region.Region.num_msbs in
  List.iteri
    (fun ri res ->
      if res.Reservation.embedded_buffer then begin
        let msb_rru = rru_by t w t.res_pairs.(ri) ~groups:num_msbs ~group:msb_of in
        let fullest = ref 0 in
        let unfinished () =
          fullest := 0;
          for m = 1 to num_msbs - 1 do
            if msb_rru.(m) > msb_rru.(!fullest) then fullest := m
          done;
          msb_rru.(!fullest) > 0.0
        in
        let window =
          if res.Reservation.dc_affinity = [] then None else Some (affinity_window t res)
        in
        let dc_of m = region.Region.msb_dc.(m) in
        let keeps_affinity pf pt =
          let df = dc_of (msb_of pf.cls) and dt = dc_of (msb_of pt.cls) in
          match window with
          | Some win when df <> dt ->
            (* per-datacenter RRU from the per-MSB loads, in MSB order *)
            let dc_rru = Array.make region.Region.num_dcs 0.0 in
            Array.iteri (fun m v -> dc_rru.(dc_of m) <- dc_rru.(dc_of m) +. v) msb_rru;
            let before = affinity_violation win dc_rru in
            dc_rru.(df) <- dc_rru.(df) -. pf.rru;
            dc_rru.(dt) <- dc_rru.(dt) +. pt.rru;
            affinity_violation win dc_rru <= before +. 1e-9
          | _ -> true
        in
        swap_search t w msb_rru ~group:msb_of t.res_pairs.(ri) ~unfinished
          ~source:(fun pf -> pf.cls.Symmetry.msb = !fullest)
          ~key:(fun pf pt ->
            let top = msb_rru.(!fullest) in
            let new_max = Float.max (top -. pf.rru) (msb_rru.(pt.cls.Symmetry.msb) +. pt.rru) in
            (* out of the fullest MSB, lowering this reservation's max share
               without shrinking its total capacity; idle servers move for a
               tenth of the cost of in-use ones (expression 1), so they go
               first, then the most headroom *)
            if
              pt.cls.Symmetry.msb <> !fullest
              && new_max < top -. 1e-9
              && pt.rru >= pf.rru -. 1e-9
              && keeps_affinity pf pt
            then Some ((if pf.cls.Symmetry.in_use then 1 else 0), -.(top -. new_max))
            else None)
      end)
    t.reservations

(* Affinity local search: for reservations with datacenter affinity, swap
   servers between datacenters (one dropped, one picked up from unassigned
   supply) until every declared datacenter's share is inside
   [(A - theta) C_r, (A + theta) C_r] or no swap helps. *)
let improve_affinity t w =
  let region = t.symmetry.Symmetry.region in
  let num_dcs = region.Region.num_dcs and num_msbs = region.Region.num_msbs in
  let dc_of cls = region.Region.msb_dc.(cls.Symmetry.msb) in
  List.iteri
    (fun ri res ->
      if res.Reservation.dc_affinity <> [] then begin
        let cr = res.Reservation.capacity_rru in
        let dc_rru = rru_by t w t.res_pairs.(ri) ~groups:num_dcs ~group:dc_of in
        let window = affinity_window t res in
        let violation () = affinity_violation window dc_rru in
        (* expression (6) for a buffered reservation: a swap may not take
           its surviving capacity below the request, or lower it further
           when it is already below *)
        let buffered = res.Reservation.embedded_buffer && num_msbs > 1 in
        let before = ref 0.0 and msb_rru = ref [||] and must_keep = ref 0.0 in
        let unfinished () =
          before := violation ();
          if buffered then msb_rru := rru_by t w t.res_pairs.(ri) ~groups:num_msbs ~group:msb_of;
          let now = Array.fold_left ( +. ) 0.0 !msb_rru -. Array.fold_left Float.max 0.0 !msb_rru in
          must_keep := Float.min cr now -. 1e-9;
          !before > 1e-6
        in
        (* total minus the fullest MSB once [pf] is swapped for [pt] *)
        let survives pf pt =
          let total = ref 0.0 and fullest = ref 0.0 in
          Array.iteri
            (fun m v ->
              let v = if m = msb_of pf.cls then v -. pf.rru else v in
              let v = if m = msb_of pt.cls then v +. pt.rru else v in
              total := !total +. v;
              fullest := Float.max !fullest v)
            !msb_rru;
          !total -. !fullest >= !must_keep
        in
        swap_search t w dc_rru ~group:dc_of t.res_pairs.(ri) ~unfinished
          ~source:(fun _ -> true)
          ~key:(fun pf pt ->
            let df = dc_of pf.cls and dt = dc_of pt.cls in
            if df = dt then None
            else begin
              (* probe in place: the subtract-and-restore rounding is part
                 of the state later probes read *)
              dc_rru.(df) <- dc_rru.(df) -. pf.rru;
              dc_rru.(dt) <- dc_rru.(dt) +. pt.rru;
              let after = violation () in
              dc_rru.(df) <- dc_rru.(df) +. pf.rru;
              dc_rru.(dt) <- dc_rru.(dt) -. pt.rru;
              (* keep total capacity: only allow swaps that do not shrink
                 the reservation; idle servers first, then the lowest
                 violation *)
              if
                after < !before -. 1e-9
                && pt.rru >= pf.rru -. 1e-9
                && ((not buffered) || survives pf pt)
              then
                Some ((if pf.cls.Symmetry.in_use then 1 else 0), after)
              else None
            end)
      end)
    t.reservations

(* Greedy capacity repair: rounding can strand fractional mass of scarce
   hardware classes, leaving reservations short.  Walk every short
   reservation and top it up from (a) unassigned class supply, preferring
   under-loaded MSBs and the highest-value class, then (b) donors that would
   remain above their own requested capacity after giving a server up. *)
let repair t solution =
  let num_msbs = t.symmetry.Symmetry.region.Region.num_msbs in
  let w =
    {
      count = Array.make (Array.length t.pairs) 0;
      class_used = Array.make (Symmetry.num_classes t.symmetry) 0;
      res_total = Array.make (Array.length t.res_pairs) 0.0;
    }
  in
  Array.iteri (fun i p -> bump t w i (int_of_float (Float.round (count solution p)))) t.pairs;
  (* a donor must keep a safety margin over its own request so stealing never
     creates a new violation elsewhere *)
  let donor_floor res =
    if res.Reservation.embedded_buffer && num_msbs > 1 then
      res.Reservation.capacity_rru *. (1.0 +. (1.2 /. float_of_int (num_msbs - 1)))
    else res.Reservation.capacity_rru
  in
  List.iteri
    (fun ri res ->
      let my_pairs = t.res_pairs.(ri) in
      let cr = res.Reservation.capacity_rru in
      let msb_rru = rru_by t w my_pairs ~groups:num_msbs ~group:msb_of in
      let buffered = res.Reservation.embedded_buffer && num_msbs > 1 in
      (* expression (6): what the reservation keeps after losing its fullest
         MSB must cover the request; without an embedded buffer plain total
         suffices *)
      let surviving () =
        if buffered then w.res_total.(ri) -. Array.fold_left Float.max 0.0 msb_rru
        else w.res_total.(ri)
      in
      (* deficit reduction if one server of pair [p] were added *)
      let gain p =
        if not buffered then p.rru
        else begin
          let old_max = Array.fold_left Float.max 0.0 msb_rru in
          let new_max = Float.max old_max (msb_rru.(p.cls.Symmetry.msb) +. p.rru) in
          w.res_total.(ri) +. p.rru -. new_max -. surviving ()
        end
      in
      let guard = ref 0 and progress = ref true in
      while surviving () < cr -. 1e-6 && !progress && !guard < 2000 do
        progress := false;
        incr guard;
        (* the best deficit reduction from free supply; failing that, from a
           donor ([d >= 0]) who keeps its safety margin after giving one up,
           idle servers first: stealing one avoids a preemption *)
        let best = ref None in
        let offer key i d =
          match !best with Some (k, _, _) when k >= key -> () | _ -> best := Some (key, i, d)
        in
        Array.iter
          (fun i ->
            let p = t.pairs.(i) in
            if w.class_used.(p.cls.Symmetry.index) < Symmetry.size p.cls then begin
              let g = gain p in
              if g > 1e-9 then offer (2, g) i (-1)
            end)
          my_pairs;
        if Option.is_none !best then
          Array.iter
            (fun i ->
              let g = gain t.pairs.(i) in
              if g > 1e-9 then
                Array.iter
                  (fun d ->
                    let donor = t.pairs.(d) in
                    if
                      donor.res_index <> ri
                      && w.count.(d) > 0
                      && w.res_total.(donor.res_index) -. donor.rru >= donor_floor donor.res -. 1e-6
                    then offer ((if donor.cls.Symmetry.in_use then 0 else 1), g) i d)
                  t.class_pairs.(t.pairs.(i).cls.Symmetry.index))
            my_pairs;
        match !best with
        | Some (_, i, d) ->
          if d >= 0 then bump t w d (-1);
          bump t w i 1;
          let p = t.pairs.(i) in
          msb_rru.(p.cls.Symmetry.msb) <- msb_rru.(p.cls.Symmetry.msb) +. p.rru;
          progress := true
        | None -> ()
      done)
    t.reservations;
  improve_spread t w;
  improve_affinity t w;
  encode_counts t w.count
