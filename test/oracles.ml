(* Full-scan oracles: the original implementations of decisions the
   library now makes from an index, kept here so differential tests can
   compare the index against them.

   - The tier-1 decisions Ras.Reactive makes from its availability index.
     Each oracle walks every server and materializes a record per server,
     O(region) per event (test_reactive.ml, test_core.ml).
   - The Markowitz candidate window of the LU refactorization, which
     Ras_mip.Basis reads off a count heap (test_basis.ml).
   - The symmetry-class build, which Ras.Symmetry streams over the
     snapshot columns (test_region_scale.ml, test_properties.ml). *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region

(* The original replacement search: one full record-building broker scan
   per failure event.  Every [Elastic] server is a loan whose home is the
   shared buffer, so lent servers are read straight from the owner codes.
   Scores rank same subtype first, then buffer before loan, idle before in
   use, then lowest id. *)
let find_replacement_reference broker res ~failed_hw =
  let candidate_score (r : Broker.record) ~lent =
    (* a lent server may be reclaimed even while running opportunistic
       containers — that is the elastic contract (§3.4) *)
    if (not (Broker.healthy r)) || (r.Broker.in_use && not lent) then None
    else begin
      let hw = r.Broker.server.Region.hw in
      if res.Reservation.rru_of hw <= 0.0 then None
      else begin
        let same_subtype = hw.Ras_topology.Hardware.index = failed_hw in
        Some
          ( (if same_subtype then 0 else 1),
            (if lent then 1 else 0),
            (if r.Broker.in_use then 1 else 0),
            r.Broker.server.Region.id )
      end
    end
  in
  let best = ref None in
  Broker.iter broker ~f:(fun r ->
      let id = r.Broker.server.Region.id in
      let scored =
        match r.Broker.current with
        | Broker.Shared_buffer -> candidate_score r ~lent:false
        | Broker.Elastic _ -> candidate_score r ~lent:true
        | Broker.Free | Broker.Reservation _ -> None
      in
      match scored with
      | Some score -> (
        match !best with
        | Some (s, _) when s <= score -> ()
        | _ -> best := Some (score, id))
      | None -> ());
  Option.map snd !best

(* The original full-scan emergency grant: it iterates every server per
   source even after the request is covered, materializing a record each
   time. *)
let grant_reference broker ~reservation ~rru ~allow_buffer : Reactive.grant =
  let owner = Broker.Reservation reservation.Reservation.id in
  let granted = ref 0.0 and servers = ref [] and from_buffer = ref 0 and visited = ref 0 in
  let try_take ~source =
    Broker.iter broker ~f:(fun r ->
        incr visited;
        if !granted < rru && r.Broker.current = source && Broker.healthy r && not r.Broker.in_use
        then begin
          let v = reservation.Reservation.rru_of r.Broker.server.Region.hw in
          if v > 0.0 then begin
            let id = r.Broker.server.Region.id in
            Broker.move broker id owner;
            Broker.set_target broker id owner;
            granted := !granted +. v;
            servers := id :: !servers;
            if source = Broker.Shared_buffer then incr from_buffer
          end
        end)
  in
  try_take ~source:Broker.Free;
  if !granted < rru && allow_buffer then try_take ~source:Broker.Shared_buffer;
  {
    requested_rru = rru;
    granted_rru = !granted;
    servers = List.rev !servers;
    took_from_buffer = !from_buffer;
    visited = !visited;
  }

(* The LU refactorization's Markowitz elimination as it first shipped:
   every step finds its candidate window — the [markowitz_cands] active
   columns of smallest (possibly stale) count, lowest index first — by
   scanning all m columns, O(m) per step.  [Basis.refactorize] reads the
   same window off an indexed count heap instead; this copy keeps the scan
   and returns what the differential tests in test_basis.ml compare: the
   elimination order as (constraint row, basis position) per step, and in
   repair mode ([~repair:true], the [Basis.refactorize_repaired] path) the
   (position, row) unit-column substitutions.  Raises [Basis.Singular]
   exactly where the production path does. *)
let markowitz_tau = 0.1
let markowitz_cands = 4

let lu_pivot_order_reference ?(repair = false) m ~basis ~col =
  let deficient = if repair then Some (ref []) else None in
  let rcol = Array.make m [||] and rval = Array.make m [||] in
  let rlen = Array.make m 0 in
  let crow = Array.make m [||] in
  let clen = Array.make m 0 in
  let row_push r c v =
    let n = rlen.(r) in
    if n = Array.length rcol.(r) then begin
      let cap = Stdlib.max 4 (2 * n) in
      let nc = Array.make cap 0 and nv = Array.make cap 0.0 in
      Array.blit rcol.(r) 0 nc 0 n;
      Array.blit rval.(r) 0 nv 0 n;
      rcol.(r) <- nc;
      rval.(r) <- nv
    end;
    rcol.(r).(n) <- c;
    rval.(r).(n) <- v;
    rlen.(r) <- n + 1
  in
  let col_push c r =
    let n = clen.(c) in
    if n = Array.length crow.(c) then begin
      let cap = Stdlib.max 4 (2 * n) in
      let nr = Array.make cap 0 in
      Array.blit crow.(c) 0 nr 0 n;
      crow.(c) <- nr
    end;
    crow.(c).(n) <- r;
    clen.(c) <- n + 1
  in
  let row_find r c =
    let a = rcol.(r) and n = rlen.(r) in
    let rec go i = if i >= n then -1 else if a.(i) = c then i else go (i + 1) in
    go 0
  in
  let row_delete r idx =
    let n = rlen.(r) - 1 in
    rcol.(r).(idx) <- rcol.(r).(n);
    rval.(r).(idx) <- rval.(r).(n);
    rlen.(r) <- n
  in
  for i = 0 to m - 1 do
    col basis.(i) (fun r v ->
        if v <> 0.0 then begin
          row_push r i v;
          col_push i r
        end)
  done;
  let row_active = Array.make m true and col_active = Array.make m true in
  (* scratch for compacted column entries *)
  let cand_rows = Array.make m 0 and cand_vals = Array.make m 0.0 in
  let seen = Array.make m (-1) in
  let tick = ref 0 in
  (* Rebuild column c's list from live row entries (dedup via [seen]);
     returns the live count with (row, value) pairs in the scratch arrays. *)
  let compact_col c =
    incr tick;
    let t0 = !tick in
    let a = crow.(c) in
    let n = ref 0 in
    for u = 0 to clen.(c) - 1 do
      let r = a.(u) in
      if row_active.(r) && seen.(r) <> t0 then begin
        let idx = row_find r c in
        if idx >= 0 then begin
          seen.(r) <- t0;
          a.(!n) <- r;
          cand_rows.(!n) <- r;
          cand_vals.(!n) <- rval.(r).(idx);
          incr n
        end
      end
    done;
    clen.(c) <- !n;
    !n
  in
  (* outputs *)
  let rperm = Array.make m 0 and rpos = Array.make m 0 in
  let cperm = Array.make m 0 and cpos = Array.make m 0 in
  let lrows = Array.make m [||] and lvals = Array.make m [||] in
  let ucols = Array.make m [||] and uvals = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  (* per-step scratch *)
  let urow_c = Array.make m 0 and urow_v = Array.make m 0.0 in
  let lrow_r = Array.make m 0 and lrow_v = Array.make m 0.0 in
  let repair = deficient <> None in
  let dropped = ref [] in
  (* basis positions dropped as dependent (repair mode only) *)
  let kstep = ref 0 in
  let ncols_left = ref m in
  while !ncols_left > 0 do
    (* --- pivot selection: best Markowitz cost among eligible entries of a
       few smallest-count active columns --- *)
    let cands = Array.make markowitz_cands (-1) in
    let ncand = ref 0 in
    for c = 0 to m - 1 do
      if col_active.(c) then begin
        (* insertion into the sorted candidate window by (possibly stale,
           hence over-estimated) column count *)
        let i = ref !ncand in
        while !i > 0 && clen.(cands.(!i - 1)) > clen.(c) do
          if !i < markowitz_cands then cands.(!i) <- cands.(!i - 1);
          decr i
        done;
        if !i < markowitz_cands then begin
          cands.(!i) <- c;
          if !ncand < markowitz_cands then incr ncand
        end
      end
    done;
    if !ncand = 0 then raise Ras_mip.Basis.Singular;
    let best_r = ref (-1) and best_c = ref (-1) and best_v = ref 0.0 in
    let best_cost = ref max_int and best_mag = ref 0.0 in
    for t = 0 to !ncand - 1 do
      let c = cands.(t) in
      if c >= 0 && col_active.(c) then begin
        let n = compact_col c in
        let colmax = ref 0.0 in
        for u = 0 to n - 1 do
          let a = Float.abs cand_vals.(u) in
          if a > !colmax then colmax := a
        done;
        if n = 0 || !colmax < 1e-12 then begin
          if not repair then raise Ras_mip.Basis.Singular;
          (* dependent on the pivots chosen so far: drop from the basis *)
          col_active.(c) <- false;
          decr ncols_left;
          dropped := c :: !dropped
        end
        else begin
          let thresh = markowitz_tau *. !colmax in
          for u = 0 to n - 1 do
            let v = cand_vals.(u) in
            let a = Float.abs v in
            if a >= thresh then begin
              let r = cand_rows.(u) in
              let cost = (rlen.(r) - 1) * (n - 1) in
              if cost < !best_cost || (cost = !best_cost && a > !best_mag) then begin
                best_cost := cost;
                best_mag := a;
                best_r := r;
                best_c := c;
                best_v := v
              end
            end
          done
        end
      end
    done;
    if !best_r < 0 then begin
      (* every candidate this round proved dependent: in repair mode they
         were dropped above (so the reselection loop makes progress), in
         strict mode the basis is singular *)
      if not repair then raise Ras_mip.Basis.Singular
    end
    else begin
    let k = !kstep in
    incr kstep;
    decr ncols_left;
    let prow = !best_r and pcol = !best_c and pv = !best_v in
    rperm.(k) <- prow;
    rpos.(prow) <- k;
    cperm.(k) <- pcol;
    cpos.(pcol) <- k;
    row_active.(prow) <- false;
    col_active.(pcol) <- false;
    udiag.(k) <- pv;
    (* --- U row k: the pivot row's remaining live entries --- *)
    let un = ref 0 in
    for idx = 0 to rlen.(prow) - 1 do
      let c = rcol.(prow).(idx) in
      if col_active.(c) then begin
        urow_c.(!un) <- c;
        urow_v.(!un) <- rval.(prow).(idx);
        incr un
      end
    done;
    let un = !un in
    ucols.(k) <- Array.sub urow_c 0 un;
    uvals.(k) <- Array.sub urow_v 0 un;
    (* --- eliminate the pivot column from the remaining active rows --- *)
    let ln = ref 0 in
    let pn = compact_col pcol in
    for u = 0 to pn - 1 do
      let r = cand_rows.(u) and f = cand_vals.(u) in
      let l = f /. pv in
      lrow_r.(!ln) <- r;
      lrow_v.(!ln) <- l;
      incr ln;
      (let idx = row_find r pcol in
       if idx >= 0 then row_delete r idx);
      for w = 0 to un - 1 do
        let c = ucols.(k).(w) and uv = uvals.(k).(w) in
        let idx = row_find r c in
        if idx >= 0 then begin
          let old = rval.(r).(idx) in
          let nv = old -. (l *. uv) in
          if Float.abs nv <= 1e-14 *. (Float.abs old +. Float.abs (l *. uv)) then
            row_delete r idx
          else rval.(r).(idx) <- nv
        end
        else begin
          let nv = -.(l *. uv) in
          if nv <> 0.0 then begin
            row_push r c nv;
            col_push c r
          end
        end
      done
    done;
    lrows.(k) <- Array.sub lrow_r 0 !ln;
    lvals.(k) <- Array.sub lrow_v 0 !ln
    end
  done;
  (* --- repair tail: one unit column per leftover row, placed at the
     dropped positions.  Leftover rows were never pivot rows, so their
     unit columns are untouched by the eliminated steps and factor with
     pivot 1 and empty L/U rows (already the initialized defaults). --- *)
  let replaced = Array.make m false in
  (match !dropped with
  | [] -> ()
  | drops ->
    let repairs = ref [] in
    let remaining = ref drops in
    for r = 0 to m - 1 do
      if row_active.(r) then begin
        match !remaining with
        | [] -> raise Ras_mip.Basis.Singular (* more leftover rows than dropped columns *)
        | pos :: rest ->
          remaining := rest;
          let k = !kstep in
          incr kstep;
          row_active.(r) <- false;
          replaced.(pos) <- true;
          rperm.(k) <- r;
          rpos.(r) <- k;
          cperm.(k) <- pos;
          cpos.(pos) <- k;
          udiag.(k) <- 1.0;
          repairs := (pos, r) :: !repairs
      end
    done;
    if !remaining <> [] then raise Ras_mip.Basis.Singular;
    (match deficient with
    | Some cell -> cell := List.rev !repairs
    | None -> assert false));
  let repairs = match deficient with Some cell -> !cell | None -> [] in
  (Array.init m (fun k -> (rperm.(k), cperm.(k))), repairs)

(* ---------- symmetry classes: the pre-streaming build ---------- *)

(* The pre-streaming [Symmetry.build]: materializes every server view and
   groups member-id lists in a table keyed by (msb, rack, hw, in_use,
   attr), exactly as builds did before the columnar refactor.  The
   streaming build must agree with it class-for-class, member-for-member on
   any snapshot. *)
let build_reference ?(rack_level = false) ?(include_server = fun _ -> true)
    (snapshot : Snapshot.t) =
  let groups = Hashtbl.create 256 in
  Snapshot.iter_views snapshot ~f:(fun (v : Snapshot.server_view) ->
      if v.Snapshot.usable && include_server v then begin
        let s = v.Snapshot.server in
        let loc = s.Region.loc in
        let key =
          ( loc.Region.msb,
            (if rack_level then loc.Region.rack else -1),
            s.Region.hw.Ras_topology.Hardware.index,
            v.Snapshot.in_use,
            v.Snapshot.attr )
        in
        match Hashtbl.find_opt groups key with
        | Some members -> members := s.Region.id :: !members
        | None -> Hashtbl.replace groups key (ref [ s.Region.id ])
      end);
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups []) in
  let classes =
    Array.of_list
      (List.mapi
         (fun index ((msb, rack, hw, in_use, attr) as key) ->
           let members = Array.of_list (List.sort compare !(Hashtbl.find groups key)) in
           {
             Symmetry.index;
             msb;
             rack = (if rack >= 0 then Some rack else None);
             hw;
             in_use;
             attr;
             members;
           })
         keys)
  in
  (* per-class histogram of member current-owner codes *)
  let owner_counts =
    Array.map
      (fun (c : Symmetry.cls) ->
        let h = Hashtbl.create 8 in
        Array.iter
          (fun id ->
            let code = Snapshot.current_code snapshot id in
            Hashtbl.replace h code (1 + Option.value ~default:0 (Hashtbl.find_opt h code)))
          c.Symmetry.members;
        h)
      classes
  in
  { Symmetry.classes; region = snapshot.Snapshot.region; snapshot; owner_counts }
