module Model = Ras_mip.Model
module Lin = Ras_mip.Lin_expr
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region

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

type pair = { cls : Symmetry.cls; res : Reservation.t; var : Model.var }

type t = {
  model : Model.t;
  symmetry : Symmetry.t;
  reservations : Reservation.t list;
  pairs : pair list;
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

let owner_of res =
  match res.Reservation.kind with
  | Reservation.Guaranteed -> Broker.Reservation res.Reservation.id
  | Reservation.Random_failure_buffer _ -> Broker.Shared_buffer

let build ?(params = default_params) ?(rack_level = false) (symmetry : Symmetry.t) reservations =
  let model = Model.create () in
  let pairs = ref [] in
  let per_class_vars = Array.make (Symmetry.num_classes symmetry) [] in
  (* per reservation id: terms (V, var, cls) *)
  let res_terms : (int, (float * Model.var * Symmetry.cls) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun res -> Hashtbl.replace res_terms res.Reservation.id (ref []))
    reservations;
  (* assignment variables *)
  Array.iter
    (fun (cls : Symmetry.cls) ->
      let hw = Symmetry.hw_of cls in
      List.iter
        (fun res ->
          let v = res.Reservation.rru_of hw in
          if v > 0.0 then begin
            (* names are keyed by the stable class key, never the dense
               class index: a name identifies the same logical class in
               every snapshot *)
            let name =
              Printf.sprintf "n_%s_r%d" (Symmetry.class_name cls) res.Reservation.id
            in
            let var =
              Model.add_var ~name ~lb:0.0
                ~ub:(float_of_int (Symmetry.size cls))
                ~kind:Model.Integer model
            in
            pairs := { cls; res; var } :: !pairs;
            per_class_vars.(cls.Symmetry.index) <- var :: per_class_vars.(cls.Symmetry.index);
            let wear_cost =
              params.wear_penalty *. res.Reservation.io_intensity
              *. float_of_int cls.Symmetry.attr
            in
            Model.add_to_objective model (Lin.term (params.assignment_cost +. wear_cost) var);
            let terms = Hashtbl.find res_terms res.Reservation.id in
            terms := (v, var, cls) :: !terms
          end)
        reservations)
      symmetry.Symmetry.classes;
  (* expression (5): class supply *)
  Array.iteri
    (fun idx vars ->
      if vars <> [] then begin
        let e = Lin.of_terms (List.map (fun v -> (1.0, v)) vars) in
        let cls = symmetry.Symmetry.classes.(idx) in
        ignore
          (Model.add_constraint
             ~name:(Printf.sprintf "supply_%s" (Symmetry.class_name cls))
             model e Model.Le
             (float_of_int (Symmetry.size cls)))
      end)
    per_class_vars;
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
  let group_terms terms ~scope_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (v, var, cls) ->
        let g = scope_of cls in
        let existing = try Hashtbl.find tbl g with Not_found -> [] in
        Hashtbl.replace tbl g ((v, var) :: existing))
      terms;
    Hashtbl.fold (fun g ts acc -> (g, Lin.of_terms ts) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun res ->
      let rid = res.Reservation.id in
      let terms = !(Hashtbl.find res_terms rid) in
      let total = Lin.of_terms (List.map (fun (v, var, _) -> (v, var)) terms) in
      let by_msb = group_terms terms ~scope_of:(fun c -> c.Symmetry.msb) in
      let cr = res.Reservation.capacity_rru in
      (* expressions (4) + (6): embedded correlated-failure buffer *)
      let z_term =
        if res.Reservation.embedded_buffer && symmetry.Symmetry.region.Region.num_msbs > 1 then begin
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
               ~name:(Printf.sprintf "over_r%d_m%d" rid msb)
               ~weight:params.spread_penalty
               (Lin.sub e (Lin.constant (alpha_f *. cr)))))
        by_msb;
      (* paragraph 3.3.2: storage quorum spread - a hard (softened) cap on
         any MSB's fraction of the reservation's total capacity, so
         replicated stores keep quorum through an MSB loss *)
      (match res.Reservation.hard_msb_cap with
      | Some cap ->
        List.iter
          (fun (msb, e) ->
            let excess = Lin.sub e (Lin.scale cap total) in
            let slack =
              slack_var
                ~name:(Printf.sprintf "quorum_slack_r%d_m%d" rid msb)
                ~weight:params.capacity_slack_cost [ excess ]
            in
            ignore
              (Model.add_constraint
                 ~name:(Printf.sprintf "quorum_r%d_m%d" rid msb)
                 model
                 (Lin.sub excess (Lin.var slack))
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
            if rack >= 0 then
              ignore
                (pos_part
                   ~name:(Printf.sprintf "overk_r%d_k%d" rid rack)
                   ~weight:params.spread_penalty
                   (Lin.sub e (Lin.constant (alpha_k *. cr)))))
          by_rack
      | _, _ -> ());
      (* expression (7): datacenter affinity, softened two-sided *)
      if res.Reservation.dc_affinity <> [] then begin
        let by_dc =
          group_terms terms ~scope_of:(fun c ->
              symmetry.Symmetry.region.Region.msb_dc.(c.Symmetry.msb))
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
      end;
      (* expression (1): stability *)
      let owner = owner_of res in
      List.iter
        (fun (_, var, cls) ->
          let n0 = Symmetry.current_count symmetry cls owner in
          if n0 > 0 then begin
            let cost =
              if cls.Symmetry.in_use then params.move_cost_in_use else params.move_cost_unused
            in
            ignore
              (pos_part
                 ~name:(Printf.sprintf "move_%s_r%d" (Symmetry.class_name cls) rid)
                 ~weight:cost
                 (Lin.sub (Lin.constant (float_of_int n0)) (Lin.var var)))
          end)
        terms)
    reservations;
  {
    model;
    symmetry;
    reservations;
    pairs = List.rev !pairs;
    capacity_slack = !capacity_slack;
    buffer_var = !buffer_var;
    aux_defs = List.rev !aux_defs;
    params;
    rack_level;
  }

(* Reconstruct a full solution vector from assignment counts: auxiliary
   variables all take their cheapest feasible value [max(0, max_i e_i)];
   definitions only reference earlier variables so one ascending pass
   suffices. *)
let encode t counts_of =
  let vec = Array.make (Model.num_vars t.model) 0.0 in
  List.iter (fun p -> vec.(p.var) <- float_of_int (counts_of p)) t.pairs;
  List.iter
    (fun (v, exprs) ->
      let value =
        List.fold_left (fun acc e -> Float.max acc (Lin.eval e (fun i -> vec.(i)))) 0.0 exprs
      in
      vec.(v) <- value)
    t.aux_defs;
  vec

let status_quo t =
  encode t (fun p ->
      let owner = owner_of p.res in
      Symmetry.current_count t.symmetry p.cls owner)

(* Largest-remainder rounding of an LP-relaxation solution: per class, floor
   every count, then hand the class's remaining LP mass back to the pairs
   with the largest fractional parts.  Supply can only decrease, so the
   result is always feasible once auxiliaries are re-encoded. *)
let round_lp t lp_solution =
  let by_class = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let existing = try Hashtbl.find by_class p.cls.Symmetry.index with Not_found -> [] in
      Hashtbl.replace by_class p.cls.Symmetry.index (p :: existing))
    t.pairs;
  let counts = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ ps ->
      let floors =
        List.map
          (fun p ->
            let x = Float.max 0.0 lp_solution.(p.var) in
            let fl = Float.floor (x +. 1e-9) in
            (p, int_of_float fl, x -. fl))
          ps
      in
      let total_lp = List.fold_left (fun acc p -> acc +. Float.max 0.0 lp_solution.(p.var)) 0.0 ps in
      let floor_sum = List.fold_left (fun acc (_, fl, _) -> acc + fl) 0 floors in
      let extra = int_of_float (Float.round total_lp) - floor_sum in
      let by_remainder =
        List.sort (fun (_, _, ra) (_, _, rb) -> compare rb ra) floors
      in
      List.iteri
        (fun i (p, fl, _) ->
          let c = if i < extra then fl + 1 else fl in
          Hashtbl.replace counts (p.cls.Symmetry.index, p.res.Reservation.id) c)
        by_remainder)
    by_class;
  encode t (fun p ->
      try Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) with Not_found -> 0)

let num_assignment_vars t = List.length t.pairs

type assignment = { counts : (Symmetry.cls * Reservation.t * int) list }

let decode t solution =
  let counts =
    List.filter_map
      (fun p ->
        let v = int_of_float (Float.round solution.(p.var)) in
        if v > 0 then Some (p.cls, p.res, v) else None)
      t.pairs
  in
  { counts }

let capacity_shortfalls t solution =
  List.filter_map
    (fun (rid, slack) ->
      let v = solution.(slack) in
      if v > 1e-6 then Some (rid, v) else None)
    t.capacity_slack

(* Spread local search: repeatedly move one server of the reservation out of
   its fullest MSB into an acceptable class with free supply in a less-loaded
   MSB, whenever that lowers the reservation's max-MSB capacity (expressions
   3/4/6 all improve).  Works on a counts table in place. *)
let improve_spread t ~counts ~class_used =
  let region = t.symmetry.Symmetry.region in
  let num_msbs = region.Region.num_msbs in
  let pairs_of_res = Hashtbl.create 32 in
  List.iter
    (fun p ->
      let existing = try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> [] in
      Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
    t.pairs;
  let value p = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
  let count_of p = !(Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id)) in
  let set p delta =
    let r = Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) in
    r := !r + delta;
    class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + delta
  in
  List.iter
    (fun res ->
      if res.Reservation.embedded_buffer then begin
        let my_pairs = try Hashtbl.find pairs_of_res res.Reservation.id with Not_found -> [] in
        let msb_rru = Array.make num_msbs 0.0 in
        List.iter
          (fun p ->
            msb_rru.(p.cls.Symmetry.msb) <-
              msb_rru.(p.cls.Symmetry.msb) +. (value p *. float_of_int (count_of p)))
          my_pairs;
        let improved = ref true and guard = ref 0 in
        while !improved && !guard < 500 do
          improved := false;
          incr guard;
          (* fullest MSB *)
          let max_msb = ref 0 in
          for m = 1 to num_msbs - 1 do
            if msb_rru.(m) > msb_rru.(!max_msb) then max_msb := m
          done;
          if msb_rru.(!max_msb) > 0.0 then begin
            (* best single-server move out of it *)
            let best = ref None in
            List.iter
              (fun p_from ->
                if p_from.cls.Symmetry.msb = !max_msb && count_of p_from > 0 then
                  List.iter
                    (fun p_to ->
                      if
                        p_to.cls.Symmetry.msb <> !max_msb
                        && class_used.(p_to.cls.Symmetry.index) < Symmetry.size p_to.cls
                      then begin
                        let new_src = msb_rru.(!max_msb) -. value p_from in
                        let new_dst = msb_rru.(p_to.cls.Symmetry.msb) +. value p_to in
                        (* the move must lower this reservation's max share
                           and must not shrink its total capacity *)
                        if
                          Float.max new_src new_dst < msb_rru.(!max_msb) -. 1e-9
                          && value p_to >= value p_from -. 1e-9
                        then begin
                          let headroom = msb_rru.(!max_msb) -. Float.max new_src new_dst in
                          (* idle servers move for a tenth of the cost of
                             in-use ones (expression 1), so prefer them *)
                          let key = ((if p_from.cls.Symmetry.in_use then 0 else 1), headroom) in
                          match !best with
                          | Some (k, _, _) when k >= key -> ()
                          | _ -> best := Some (key, p_from, p_to)
                        end
                      end)
                    my_pairs)
              my_pairs;
            match !best with
            | Some (_, p_from, p_to) ->
              set p_from (-1);
              set p_to 1;
              msb_rru.(p_from.cls.Symmetry.msb) <-
                msb_rru.(p_from.cls.Symmetry.msb) -. value p_from;
              msb_rru.(p_to.cls.Symmetry.msb) <- msb_rru.(p_to.cls.Symmetry.msb) +. value p_to;
              improved := true
            | None -> ()
          end
        done
      end)
    t.reservations

(* Affinity local search: for reservations with datacenter affinity, swap
   servers between datacenters (one dropped, one picked up from unassigned
   supply) until every declared datacenter's share is inside
   [(A - theta) C_r, (A + theta) C_r] or no swap helps. *)
let improve_affinity t ~counts ~class_used =
  let region = t.symmetry.Symmetry.region in
  let dc_of cls = region.Region.msb_dc.(cls.Symmetry.msb) in
  let pairs_of_res = Hashtbl.create 32 in
  List.iter
    (fun p ->
      let existing = try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> [] in
      Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
    t.pairs;
  let value p = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
  let count_of p = !(Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id)) in
  let set p delta =
    let r = Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) in
    r := !r + delta;
    class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + delta
  in
  List.iter
    (fun res ->
      if res.Reservation.dc_affinity <> [] then begin
        let my_pairs = try Hashtbl.find pairs_of_res res.Reservation.id with Not_found -> [] in
        let cr = res.Reservation.capacity_rru in
        let theta = res.Reservation.affinity_tolerance in
        let dc_rru = Array.make region.Region.num_dcs 0.0 in
        List.iter
          (fun p -> dc_rru.(dc_of p.cls) <- dc_rru.(dc_of p.cls) +. (value p *. float_of_int (count_of p)))
          my_pairs;
        let declared = res.Reservation.dc_affinity in
        let lo d = match List.assoc_opt d declared with Some a -> (a -. theta) *. cr | None -> 0.0 in
        let hi d =
          match List.assoc_opt d declared with Some a -> (a +. theta) *. cr | None -> infinity
        in
        let violation () =
          Array.to_list dc_rru
          |> List.mapi (fun d v -> Float.max 0.0 (lo d -. v) +. Float.max 0.0 (v -. hi d))
          |> List.fold_left ( +. ) 0.0
        in
        let guard = ref 0 and progress = ref true in
        while violation () > 1e-6 && !progress && !guard < 500 do
          progress := false;
          incr guard;
          (* best swap: drop one server in dc_from, add one in dc_to *)
          let best = ref None in
          let before = violation () in
          List.iter
            (fun p_from ->
              if count_of p_from > 0 then
                List.iter
                  (fun p_to ->
                    if
                      dc_of p_to.cls <> dc_of p_from.cls
                      && class_used.(p_to.cls.Symmetry.index) < Symmetry.size p_to.cls
                    then begin
                      let df = dc_of p_from.cls and dt = dc_of p_to.cls in
                      dc_rru.(df) <- dc_rru.(df) -. value p_from;
                      dc_rru.(dt) <- dc_rru.(dt) +. value p_to;
                      let after = violation () in
                      dc_rru.(df) <- dc_rru.(df) +. value p_from;
                      dc_rru.(dt) <- dc_rru.(dt) -. value p_to;
                      (* keep total capacity: only allow swaps that do not
                         shrink the reservation *)
                      if after < before -. 1e-9 && value p_to >= value p_from -. 1e-9 then begin
                        let key = ((if p_from.cls.Symmetry.in_use then 1 else 0), after) in
                        match !best with
                        | Some (k, _, _) when k <= key -> ()
                        | _ -> best := Some (key, p_from, p_to)
                      end
                    end)
                  my_pairs)
            my_pairs;
          match !best with
          | Some (_, p_from, p_to) ->
            set p_from (-1);
            set p_to 1;
            dc_rru.(dc_of p_from.cls) <- dc_rru.(dc_of p_from.cls) -. value p_from;
            dc_rru.(dc_of p_to.cls) <- dc_rru.(dc_of p_to.cls) +. value p_to;
            progress := true
          | None -> ()
        done
      end)
    t.reservations

(* Greedy capacity repair: rounding can strand fractional mass of scarce
   hardware classes, leaving reservations short.  Walk every short
   reservation and top it up from (a) unassigned class supply, preferring
   under-loaded MSBs and the highest-value class, then (b) donors that would
   remain above their own requested capacity after giving a server up. *)
let repair t solution =
  let nclasses = Array.length t.symmetry.Symmetry.classes in
  let num_msbs = t.symmetry.Symmetry.region.Region.num_msbs in
  let counts = Hashtbl.create 256 in
  let class_used = Array.make nclasses 0 in
  let res_total = Hashtbl.create 32 in
  List.iter
    (fun res -> Hashtbl.replace res_total res.Reservation.id (ref 0.0))
    t.reservations;
  List.iter
    (fun p ->
      let c = int_of_float (Float.round solution.(p.var)) in
      Hashtbl.replace counts (p.cls.Symmetry.index, p.res.Reservation.id) (ref c);
      class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + c;
      let v = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
      let total = Hashtbl.find res_total p.res.Reservation.id in
      total := !total +. (v *. float_of_int c))
    t.pairs;
  let value p = p.res.Reservation.rru_of (Symmetry.hw_of p.cls) in
  let count_of p = !(Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id)) in
  let bump p delta =
    let r = Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) in
    r := !r + delta;
    class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + delta;
    let total = Hashtbl.find res_total p.res.Reservation.id in
    total := !total +. (value p *. float_of_int delta)
  in
  let pairs_of_res = Hashtbl.create 32 in
  List.iter
    (fun p ->
      let existing =
        try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> []
      in
      Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
    t.pairs;
  let pairs_of_class = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let existing =
        try Hashtbl.find pairs_of_class p.cls.Symmetry.index with Not_found -> []
      in
      Hashtbl.replace pairs_of_class p.cls.Symmetry.index (p :: existing))
    t.pairs;
  (* a donor must keep a safety margin over its own request so stealing never
     creates a new violation elsewhere *)
  let donor_floor res =
    if res.Reservation.embedded_buffer && num_msbs > 1 then
      res.Reservation.capacity_rru *. (1.0 +. (1.2 /. float_of_int (num_msbs - 1)))
    else res.Reservation.capacity_rru
  in
  List.iter
    (fun res ->
      let rid = res.Reservation.id in
      let my_pairs = try Hashtbl.find pairs_of_res rid with Not_found -> [] in
      let cr = res.Reservation.capacity_rru in
      let total = Hashtbl.find res_total rid in
      let msb_rru = Array.make num_msbs 0.0 in
      List.iter
        (fun p ->
          msb_rru.(p.cls.Symmetry.msb) <-
            msb_rru.(p.cls.Symmetry.msb) +. (value p *. float_of_int (count_of p)))
        my_pairs;
      let buffered = res.Reservation.embedded_buffer && num_msbs > 1 in
      (* expression (6): what the reservation keeps after losing its fullest
         MSB must cover the request; without an embedded buffer plain total
         suffices *)
      let surviving () =
        if buffered then !total -. Array.fold_left Float.max 0.0 msb_rru else !total
      in
      (* deficit reduction if one server of pair [p] were added *)
      let gain p =
        if not buffered then value p
        else begin
          let old_max = Array.fold_left Float.max 0.0 msb_rru in
          let new_max = Float.max old_max (msb_rru.(p.cls.Symmetry.msb) +. value p) in
          !total +. value p -. new_max -. surviving ()
        end
      in
      let guard = ref 0 in
      let progress = ref true in
      while surviving () < cr -. 1e-6 && !progress && !guard < 2000 do
        progress := false;
        incr guard;
        (* free supply: candidate with the best deficit reduction *)
        let best_free = ref None in
        List.iter
          (fun p ->
            if class_used.(p.cls.Symmetry.index) < Symmetry.size p.cls then begin
              let g = gain p in
              if g > 1e-9 then
                match !best_free with
                | Some (bg, _) when bg >= g -> ()
                | _ -> best_free := Some (g, p)
            end)
          my_pairs;
        match !best_free with
        | Some (_, p) ->
          bump p 1;
          msb_rru.(p.cls.Symmetry.msb) <- msb_rru.(p.cls.Symmetry.msb) +. value p;
          progress := true
        | None ->
          (* donors: anyone who keeps its safety margin after giving one up *)
          let best_donor = ref None in
          List.iter
            (fun my_p ->
              let g = gain my_p in
              if g > 1e-9 then begin
                let others =
                  try Hashtbl.find pairs_of_class my_p.cls.Symmetry.index with Not_found -> []
                in
                List.iter
                  (fun donor ->
                    if donor.res.Reservation.id <> rid && count_of donor > 0 then begin
                      let donor_total = !(Hashtbl.find res_total donor.res.Reservation.id) in
                      if donor_total -. value donor >= donor_floor donor.res -. 1e-6 then begin
                        (* stealing an idle server avoids a preemption *)
                        let key = ((if donor.cls.Symmetry.in_use then 0 else 1), g) in
                        match !best_donor with
                        | Some (bk, _, _) when bk >= key -> ()
                        | _ -> best_donor := Some (key, my_p, donor)
                      end
                    end)
                  others
              end)
            my_pairs;
          (match !best_donor with
          | Some (_, my_p, donor) ->
            bump donor (-1);
            bump my_p 1;
            msb_rru.(my_p.cls.Symmetry.msb) <- msb_rru.(my_p.cls.Symmetry.msb) +. value my_p;
            progress := true
          | None -> ())
      done)
    t.reservations;
  improve_spread t ~counts ~class_used;
  improve_affinity t ~counts ~class_used;
  encode t (fun p -> count_of p)
let movement_units t solution ~in_use =
  List.fold_left
    (fun acc p ->
      if p.cls.Symmetry.in_use = in_use then begin
        let owner = owner_of p.res in
        let n0 = Symmetry.current_count t.symmetry p.cls owner in
        if n0 > 0 then acc +. Float.max 0.0 (float_of_int n0 -. solution.(p.var)) else acc
      end
      else acc)
    0.0 t.pairs
