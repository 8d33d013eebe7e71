(* Full-scan oracles: the original implementations of decisions the
   library now makes from an index, kept here so differential tests can
   compare the index against them.

   - The tier-1 decisions Ras.Reactive makes from its availability index.
     Each oracle walks every server's columns, O(region) per event
     (test_reactive.ml, test_core.ml).
   - The LU refactorization's column singletons and Markowitz candidate
     window, which Ras_mip.Basis takes off a stack and a count heap
     (test_basis.ml).
   - The symmetry-class build, which Ras.Symmetry streams over the
     snapshot columns (test_region_scale.ml, test_properties.ml).
   - Disaggregation: Ras.Concretize and Async_solver's phase-2 selection
     and merge, which now emit only the moves and skip the classes that do
     not change, as they first shipped over per-class tables, a
     server-keyed target table with a target for every covered server and
     sorted lists; and the apply step that wrote every one of those
     targets (test_properties.ml, test_region_scale.ml, test_core.ml).
   - The primal heuristic: Ras.Formulation's rounding and repair passes,
     which now share one count array by pair, as they first shipped over
     Hashtbls keyed by (class, reservation) (test_core.ml,
     test_region_scale.ml).
   - Admission supply: the usable servers per hardware subtype, which the
     broker now keeps as counts and a snapshot freezes (test_core.ml).
   - The reservation report of Ras.Explain, which now reads one pass of
     per-(MSB, subtype) server counts, as it first shipped over two walks
     (test_core.ml).
   - The model compile: Ras_mip.Model.compile, which now merges each row
     in one dense scratch, as it shipped with a table and a sort per row
     (test_differential.ml, test_core.ml, test_region_scale.ml,
     test_mip.ml).
   - The formulation's stability term (expression 1), which Ras.Formulation
     now states as a bound split of each held pair's count, as it shipped:
     a move variable and a row per held pair (test_core.ml,
     test_region_scale.ml).

   And independent references that share no code with what they check:

   - LP and MIP: a dense tableau simplex under Bland's rule and a
     depth-first branch-and-bound over it, against Ras_mip.Simplex and
     Ras_mip.Branch_bound (test_differential.ml, test_mip.ml,
     test_warmstart.ml), and an optimality certificate read off an LP
     optimum's point and duals (also test_region_scale.ml).
   - LU accuracy: FTRAN/BTRAN residuals against the basis columns, for
     Ras_mip.Basis (test_basis.ml, test_sparse_kernels.ml,
     test_warmstart.ml). *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region

(* The original replacement search: one full broker scan per failure
   event.  Every [Elastic] server is a loan whose home is the shared buffer,
   so lent servers are read straight from the owner column.  Scores rank
   same subtype first, then buffer before loan, idle before in use, then
   lowest id. *)
let find_replacement_reference broker res ~failed_hw =
  let servers = (Broker.region broker).Region.servers in
  let candidate_score id ~lent =
    let in_use = Broker.in_use_at broker id in
    (* a lent server may be reclaimed even while running opportunistic
       containers — that is the elastic contract (§3.4) *)
    if (not (Broker.healthy_at broker id)) || (in_use && not lent) then None
    else begin
      let hw = servers.(id).Region.hw in
      if res.Reservation.rru_of hw <= 0.0 then None
      else begin
        let same_subtype = hw.Ras_topology.Hardware.index = failed_hw in
        Some
          ( (if same_subtype then 0 else 1),
            (if lent then 1 else 0),
            (if in_use then 1 else 0),
            id )
      end
    end
  in
  let best = ref None in
  for id = 0 to Broker.num_servers broker - 1 do
    let scored =
      match Broker.current_owner broker id with
      | Broker.Shared_buffer -> candidate_score id ~lent:false
      | Broker.Elastic _ -> candidate_score id ~lent:true
      | Broker.Free | Broker.Reservation _ -> None
    in
    match scored with
    | Some score -> (
      match !best with
      | Some (s, _) when s <= score -> ()
      | _ -> best := Some (score, id))
    | None -> ()
  done;
  Option.map snd !best

(* The original full-scan emergency grant: it visits every server per
   source even after the request is covered. *)
let grant_reference broker ~reservation ~rru ~allow_buffer : Reactive.grant =
  let owner = Broker.Reservation reservation.Reservation.id in
  let region_servers = (Broker.region broker).Region.servers in
  let granted = ref 0.0 and servers = ref [] and from_buffer = ref 0 and visited = ref 0 in
  let try_take ~source =
    for id = 0 to Broker.num_servers broker - 1 do
      incr visited;
      if
        !granted < rru
        && Broker.current_owner broker id = source
        && Broker.healthy_at broker id
        && not (Broker.in_use_at broker id)
      then begin
        let v = reservation.Reservation.rru_of region_servers.(id).Region.hw in
        if v > 0.0 then begin
          Broker.move broker id owner;
          Broker.set_target broker id owner;
          granted := !granted +. v;
          servers := id :: !servers;
          if source = Broker.Shared_buffer then incr from_buffer
        end
      end
    done
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

(* The LU refactorization's elimination order, written as plain rescans.
   First the column-singleton pass: while some active column has exactly
   one active row, pivot the one that became a singleton last — initial
   singletons count as becoming one in descending position, so position 0
   goes first, and the columns of one pivot row in that row's (ascending)
   order — found by scanning every column's stamp, O(m) per step.  Then
   the Markowitz elimination as it first shipped: every step finds its
   candidate window — the [markowitz_cands] active columns of smallest
   (possibly stale) count, lowest index first — by scanning all m columns,
   O(m) per step.  [Basis.refactorize] runs the singleton pass off a stack
   and reads the window off an indexed count heap instead; this copy
   returns what the differential tests in test_basis.ml compare: the
   elimination order as (constraint row, basis position) per step, and how
   many of those steps the singleton pass took.  Raises [Basis.Singular]
   exactly where the production path does. *)
let markowitz_tau = 0.1
let markowitz_cands = 4

let lu_pivot_order_reference m ~basis ~col =
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
  (* outputs *)
  let rperm = Array.make m 0 and rpos = Array.make m 0 in
  let cperm = Array.make m 0 and cpos = Array.make m 0 in
  (* --- column singletons: [cnt.(c)] active rows of column c; [stamp.(c)]
     orders the moments columns became singletons --- *)
  let cnt = Array.copy clen in
  let stamp = Array.make m (-1) and clock = ref 0 in
  let became_singleton c =
    stamp.(c) <- !clock;
    incr clock
  in
  for c = m - 1 downto 0 do
    if cnt.(c) = 0 then raise Ras_mip.Basis.Singular;
    if cnt.(c) = 1 then became_singleton c
  done;
  let latest_singleton () =
    let best = ref (-1) in
    for c = 0 to m - 1 do
      if col_active.(c) && cnt.(c) = 1 && (!best < 0 || stamp.(c) > stamp.(!best)) then best := c
    done;
    !best
  in
  let singletons = ref 0 in
  let c = ref (latest_singleton ()) in
  while !c >= 0 do
    let pcol = !c and k = !singletons in
    let prow = ref (-1) in
    for u = 0 to clen.(pcol) - 1 do
      if row_active.(crow.(pcol).(u)) then prow := crow.(pcol).(u)
    done;
    let prow = !prow in
    if Float.abs rval.(prow).(row_find prow pcol) < 1e-12 then raise Ras_mip.Basis.Singular;
    rperm.(k) <- prow;
    rpos.(prow) <- k;
    cperm.(k) <- pcol;
    cpos.(pcol) <- k;
    row_active.(prow) <- false;
    col_active.(pcol) <- false;
    for idx = 0 to rlen.(prow) - 1 do
      let c' = rcol.(prow).(idx) in
      if col_active.(c') then begin
        cnt.(c') <- cnt.(c') - 1;
        if cnt.(c') = 0 then raise Ras_mip.Basis.Singular;
        if cnt.(c') = 1 then became_singleton c'
      end
    done;
    singletons := k + 1;
    c := latest_singleton ()
  done;
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
  (* the Markowitz elimination starts from exact counts over the rows and
     columns the singleton pass left *)
  for c = 0 to m - 1 do
    if col_active.(c) then ignore (compact_col c)
  done;
  let lrows = Array.make m [||] and lvals = Array.make m [||] in
  let ucols = Array.make m [||] and uvals = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  (* per-step scratch *)
  let urow_c = Array.make m 0 and urow_v = Array.make m 0.0 in
  let lrow_r = Array.make m 0 and lrow_v = Array.make m 0.0 in
  for k = !singletons to m - 1 do
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
        if n = 0 || !colmax < 1e-12 then raise Ras_mip.Basis.Singular;
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
    done;
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
  done;
  (Array.init m (fun k -> (rperm.(k), cperm.(k))), !singletons)

(* ---------- symmetry classes: the pre-streaming build ---------- *)

(* A solve's scope, stated per server on the decoded owner: the server is
   usable and its owner is [Free], a guaranteed reservation of the
   snapshot, or the shared buffer (a loan is lent from it) while the
   snapshot holds a buffer reservation. *)
let in_scope_reference (snapshot : Snapshot.t) id =
  let reservations = snapshot.Snapshot.reservations in
  Snapshot.usable_at snapshot id
  &&
  match Broker.owner_of_code snapshot.Snapshot.current.(id) with
  | Broker.Free -> true
  | Broker.Shared_buffer | Broker.Elastic _ -> List.exists Reservation.is_buffer reservations
  | Broker.Reservation r ->
    List.exists
      (fun res -> res.Reservation.id = r && not (Reservation.is_buffer res))
      reservations

(* The pre-streaming [Symmetry.build]: groups member-id lists in a table
   keyed by (msb, rack, hw, in_use, attr), exactly as builds did before the
   columnar refactor, over the servers [in_scope_reference] admits.  The
   streaming build must agree with it class-for-class, member-for-member
   on any snapshot. *)
let build_reference ?(rack_level = false) (snapshot : Snapshot.t) =
  let groups = Hashtbl.create 256 in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    if in_scope_reference snapshot id then begin
      let s = Snapshot.server snapshot id in
      let loc = s.Region.loc in
      let key =
        ( loc.Region.msb,
          (if rack_level then loc.Region.rack else -1),
          s.Region.hw.Ras_topology.Hardware.index,
          Snapshot.in_use_at snapshot id,
          Snapshot.attr_at snapshot id )
      in
      match Hashtbl.find_opt groups key with
      | Some members -> members := id :: !members
      | None -> Hashtbl.replace groups key (ref [ id ])
    end
  done;
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
  (* per-class histogram of member current-owner codes, as ascending
     (code, count) runs laid end to end *)
  let runs =
    Array.map
      (fun (c : Symmetry.cls) ->
        let h = Hashtbl.create 8 in
        Array.iter
          (fun id ->
            let code = Snapshot.current_code snapshot id in
            Hashtbl.replace h code (1 + Option.value ~default:0 (Hashtbl.find_opt h code)))
          c.Symmetry.members;
        List.sort compare (Hashtbl.fold (fun code n acc -> (code, n) :: acc) h []))
      classes
  in
  let first = Array.make (Array.length classes + 1) 0 in
  Array.iteri (fun c run -> first.(c + 1) <- first.(c) + List.length run) runs;
  let flat = Array.of_list (List.concat (Array.to_list runs)) in
  let owner_counts =
    { Symmetry.first; codes = Array.map fst flat; counts = Array.map snd flat }
  in
  { Symmetry.classes; region = snapshot.Snapshot.region; snapshot; owner_counts }

(* ---------- disaggregation: the table-and-list implementation ---------- *)

(* A plan as disaggregation first stated it: the moves, and a target for
   every server the solve covered, both ascending id. *)
type full_plan = { moves : Concretize.move list; targets : (int * Broker.owner) list }

(* [plan] makes the reference's moves and writes the moves' targets. *)
let plan_matches (plan : Concretize.plan) (reference : full_plan) =
  plan.Concretize.moves = reference.moves
  && plan.Concretize.targets
     = List.map (fun m -> (m.Concretize.server, m.Concretize.to_)) reference.moves

(* The broker's target column after the first apply step wrote every
   target of [plan] over [before], the column as the apply found it. *)
let apply_reference before (plan : full_plan) =
  let after = Array.copy before in
  List.iter (fun (id, owner) -> after.(id) <- Broker.owner_code owner) plan.targets;
  after

(* [Concretize.plan] before the owner-code column: per class a [Hashtbl] of
   kept members, a [List.filter] per quota and a polymorphic sort of the
   surplus.  The class walk must give the same moves. *)
let concretize_reference (f : Formulation.t) (assignment : Formulation.assignment) : full_plan =
  let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
  let current id = Snapshot.current snapshot id in
  (* per class: quotas per owner *)
  let quotas_of_class : (int, (Broker.owner * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (cls, res, count) ->
      let owner = Reservation.owner res in
      let q =
        match Hashtbl.find_opt quotas_of_class cls.Symmetry.index with
        | Some q -> q
        | None ->
          let q = ref [] in
          Hashtbl.replace quotas_of_class cls.Symmetry.index q;
          q
      in
      q := (owner, count) :: !q)
    assignment.Formulation.counts;
  let moves = ref [] and targets = ref [] in
  Array.iter
    (fun (cls : Symmetry.cls) ->
      let quotas =
        match Hashtbl.find_opt quotas_of_class cls.Symmetry.index with
        | Some q -> List.sort compare !q
        | None -> []
      in
      let members = Array.to_list cls.Symmetry.members in
      (* stability first: fill each owner's quota with servers it already has *)
      let kept : (int, Broker.owner) Hashtbl.t = Hashtbl.create 16 in
      let remaining_quota = ref [] in
      List.iter
        (fun (owner, want) ->
          let have = List.filter (fun id -> current id = owner) members in
          let keep, _ =
            List.fold_left
              (fun (acc, k) id -> if k < want then (id :: acc, k + 1) else (acc, k))
              ([], 0) have
          in
          List.iter (fun id -> Hashtbl.replace kept id owner) keep;
          let missing = want - List.length keep in
          if missing > 0 then remaining_quota := (owner, missing) :: !remaining_quota)
        quotas;
      (* surplus pool: members not kept anywhere; free servers first, then by id *)
      let surplus = List.filter (fun id -> not (Hashtbl.mem kept id)) members in
      let free_first =
        List.stable_sort
          (fun a b ->
            let fa = current a = Broker.Free and fb = current b = Broker.Free in
            if fa = fb then compare a b else if fa then -1 else 1)
          surplus
      in
      let pool = ref free_first in
      List.iter
        (fun (owner, missing) ->
          let taken = ref 0 in
          let rest = ref [] in
          List.iter
            (fun id ->
              if !taken < missing then begin
                Hashtbl.replace kept id owner;
                incr taken
              end
              else rest := id :: !rest)
            !pool;
          pool := List.rev !rest)
        (List.sort compare !remaining_quota);
      (* whatever is left returns to the free pool *)
      List.iter (fun id -> if not (Hashtbl.mem kept id) then Hashtbl.replace kept id Broker.Free) members;
      List.iter
        (fun id ->
          let target = Hashtbl.find kept id in
          targets := (id, target) :: !targets;
          if target <> current id then
            moves :=
              {
                Concretize.server = id;
                from_ = current id;
                to_ = target;
                was_in_use = Snapshot.in_use_at snapshot id;
              }
              :: !moves)
        members)
    f.Formulation.symmetry.Symmetry.classes;
  {
    moves = List.sort (fun a b -> compare a.Concretize.server b.Concretize.server) !moves;
    targets = List.sort compare !targets;
  }

(* Async_solver's phase-2 criterion before the column: one pass over the
   whole target table per reservation, summed in hash order. *)
let rack_overflow_reference (snapshot : Snapshot.t) targets res =
  match res.Reservation.rack_spread_limit with
  | None -> 0.0
  | Some alpha_k ->
    let owner = Reservation.owner res in
    let per_rack = Hashtbl.create 32 in
    Hashtbl.iter
      (fun id target ->
        if target = owner then begin
          let s = Snapshot.server snapshot id in
          let rru = res.Reservation.rru_of s.Region.hw in
          if rru > 0.0 then begin
            let rack = s.Region.loc.Region.rack in
            let cur = try Hashtbl.find per_rack rack with Not_found -> 0.0 in
            Hashtbl.replace per_rack rack (cur +. rru)
          end
        end)
      targets;
    let limit = alpha_k *. res.Reservation.capacity_rru in
    Hashtbl.fold (fun _ v acc -> acc +. Float.max 0.0 (v -. limit)) per_rack 0.0

let with_targets_reference (snapshot : Snapshot.t) targets =
  let current = Array.copy snapshot.Snapshot.current in
  let in_use = Bytes.copy snapshot.Snapshot.in_use in
  Hashtbl.iter
    (fun id owner ->
      let code = Broker.owner_code owner in
      if Snapshot.current_code snapshot id <> code then begin
        current.(id) <- code;
        Bytes.set in_use id '\000'
      end)
    targets;
  { snapshot with Snapshot.current; in_use }

(* Phase 2's pools as [Async_solver] counted them before it read them
   from phase 1's assignment: one pass over every server of the snapshot
   with phase 1's moves made, counting the usable ones per owner code
   (loans at their home), indexed by every code the column holds. *)
let usable_by_code_reference (snapshot : Snapshot.t) =
  let counts = Array.make (Array.fold_left Int.max 0 snapshot.Snapshot.current + 1) 0 in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    if Snapshot.usable_at snapshot id then begin
      let c = Snapshot.current_code snapshot id in
      counts.(c) <- counts.(c) + 1
    end
  done;
  counts

(* [Concretize.held] against [usable_by_code_reference] of the snapshot
   with the assignment's targets made, for [Free] and every reservation
   of the snapshot: the first owner that differs, described. *)
let held_difference (f : Formulation.t) assignment =
  let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
  let targets = Hashtbl.create 1024 in
  List.iter
    (fun (id, owner) -> Hashtbl.replace targets id owner)
    (concretize_reference f assignment).targets;
  let counted = usable_by_code_reference (with_targets_reference snapshot targets) in
  let held = Concretize.held f assignment in
  List.find_map
    (fun owner ->
      let code = Broker.owner_code owner in
      let want = if code < Array.length counted then counted.(code) else 0 in
      if held owner = want then None
      else Some (Printf.sprintf "owner code %d holds %d, the pass counts %d" code (held owner) want))
    (Broker.Free :: List.map Reservation.owner snapshot.Snapshot.reservations)

type merge = {
  overflows : float list;  (** phase-1 rack overflow per snapshot reservation *)
  selected : int list;  (** phase-2 reservation ids, in the order phase 2 got them *)
  phase2_snapshot : Snapshot.t option;  (** what phase 2 solved from, when it ran *)
  plan : full_plan;
}

(* Everything [Async_solver.solve] did after each phase before the column,
   replayed from a solve's phase results: the phase-1 target table, the
   rack overflows, the phase-2 selection (one full server pass per
   candidate), the phase-2 overwrite and the merge with its two sorts.  A
   server the solve did not cover counts nowhere, as in the solve. *)
let merge_reference (stats : Async_solver.stats) =
  let p1 = stats.Async_solver.phase1 in
  let snapshot = p1.Phases.formulation.Formulation.symmetry.Symmetry.snapshot in
  let reservations = snapshot.Snapshot.reservations in
  let concretize (p : Phases.result) =
    let f = p.Phases.formulation in
    concretize_reference f (Formulation.decode f p.Phases.solution)
  in
  let targets = Hashtbl.create 1024 in
  let overwrite (plan : full_plan) =
    List.iter (fun (id, owner) -> Hashtbl.replace targets id owner) plan.targets
  in
  overwrite (concretize p1);
  let overflows = List.map (rack_overflow_reference snapshot targets) reservations in
  let scored =
    List.filter_map
      (fun (overflow, res) -> if overflow > 1e-6 then Some (overflow, res) else None)
      (List.combine overflows reservations)
  in
  let selected, phase2_snapshot =
    if scored = [] then ([], None)
    else begin
      let scored = List.sort (fun (a, _) (b, _) -> compare b a) scored in
      let quota = Int.max 1 (int_of_float (0.1 *. float_of_int (List.length reservations))) in
      let snapshot2_all = with_targets_reference snapshot targets in
      let usable_by_code = usable_by_code_reference snapshot2_all in
      let selected = ref [] and var_estimate = ref 0 in
      List.iteri
        (fun i (_, res) ->
          if i < quota then begin
            let server_count =
              usable_by_code.(Broker.owner_code (Reservation.owner res))
              + usable_by_code.(Broker.owner_code Broker.Free)
            in
            if !var_estimate + server_count <= 6000 then begin
              selected := res :: !selected;
              var_estimate := !var_estimate + server_count
            end
          end)
        scored;
      if !selected = [] then ([], None)
      else (List.map (fun r -> r.Reservation.id) !selected, Some snapshot2_all)
    end
  in
  (match stats.Async_solver.phase2 with
  | Some p2 -> overwrite (concretize p2)
  | None -> ());
  let moves = ref [] and target_list = ref [] in
  Hashtbl.iter
    (fun id owner ->
      target_list := (id, owner) :: !target_list;
      let current = Snapshot.current snapshot id in
      if current <> owner then
        moves :=
          {
            Concretize.server = id;
            from_ = current;
            to_ = owner;
            was_in_use = Snapshot.in_use_at snapshot id;
          }
          :: !moves)
    targets;
  let plan =
    {
      moves = List.sort (fun a b -> compare a.Concretize.server b.Concretize.server) !moves;
      targets = List.sort compare !target_list;
    }
  in
  { overflows; selected; phase2_snapshot; plan }

(* ---------- admission supply: the per-server fold ---------- *)

(* [Snapshot.usable_hw_histogram] before the broker kept the counts: one
   pass over every server of the snapshot, counting the usable ones per
   hardware-catalog index. *)
let usable_hw_histogram_reference (snapshot : Snapshot.t) =
  let counts = Array.make Ras_topology.Hardware.count 0 in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    if Snapshot.usable_at snapshot id then begin
      let h = (Snapshot.server snapshot id).Region.hw.Ras_topology.Hardware.index in
      counts.(h) <- counts.(h) + 1
    end
  done;
  counts

(* ---------- explain: the two-walk reservation report ---------- *)

(* [Explain.reservation_report] as it shipped before one pass gave the
   per-(MSB, subtype) counts: one walk summed each owned server's RRU into
   its MSB, a second counted the owned servers per subtype.  A server is
   the reservation's when its owner code is the reservation's own, or the
   shared buffer's for a buffer reservation of its hardware category. *)
let reservation_report_reference (snapshot : Snapshot.t) res =
  let module Hw = Ras_topology.Hardware in
  let region = snapshot.Snapshot.region in
  let owned id hw =
    match Broker.owner_of_code (Snapshot.current_code snapshot id) with
    | Broker.Shared_buffer -> Reservation.is_buffer res && res.Reservation.rru_of hw > 0.0
    | Broker.Reservation r -> r = res.Reservation.id && not (Reservation.is_buffer res)
    | Broker.Free | Broker.Elastic _ -> false
  in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let per_msb = Array.make region.Region.num_msbs 0.0 in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    if Snapshot.usable_at snapshot id then begin
      let s = Snapshot.server snapshot id in
      if owned id s.Region.hw then begin
        let m = s.Region.loc.Region.msb in
        per_msb.(m) <- per_msb.(m) +. res.Reservation.rru_of s.Region.hw
      end
    end
  done;
  let total = Array.fold_left ( +. ) 0.0 per_msb in
  let max_msb = Array.fold_left Float.max 0.0 per_msb in
  add "%s (reservation %d)\n" res.Reservation.name res.Reservation.id;
  add "  capacity: %.1f RRU bound / %.1f requested%s\n" total res.Reservation.capacity_rru
    (if total >= res.Reservation.capacity_rru then "" else "  ** SHORT **");
  let hw_counts = Array.make Hw.count 0 in
  for id = 0 to Snapshot.num_servers snapshot - 1 do
    if Snapshot.usable_at snapshot id then begin
      let hw = (Snapshot.server snapshot id).Region.hw in
      if owned id hw then hw_counts.(hw.Hw.index) <- hw_counts.(hw.Hw.index) + 1
    end
  done;
  add "  hardware:";
  Array.iteri (fun i c -> if c > 0 then add " %s x%d" Hw.catalog.(i).Hw.code c) hw_counts;
  add "\n";
  let max_share = if total <= 0.0 then nan else max_msb /. total in
  let used_msbs = Array.fold_left (fun acc v -> if v > 0.0 then acc + 1 else acc) 0 per_msb in
  if Float.is_nan max_share then add "  spread: no capacity bound yet\n"
  else begin
    add "  spread: %d/%d MSBs, max MSB share %.1f%% (limit alpha_F = %.1f%%)%s\n" used_msbs
      (Array.length per_msb) (100.0 *. max_share)
      (100.0 *. res.Reservation.msb_spread_limit)
      (if max_share > res.Reservation.msb_spread_limit +. 1e-9 then "  ** OVER **" else "");
    if res.Reservation.embedded_buffer then begin
      let survives = total -. max_msb >= res.Reservation.capacity_rru -. 1e-9 in
      add "  embedded buffer: %s (capacity after worst MSB loss: %.1f / %.1f needed)\n"
        (if survives then "covers one MSB failure" else "** CANNOT cover an MSB failure **")
        (total -. max_msb) res.Reservation.capacity_rru
    end
  end;
  (match res.Reservation.hard_msb_cap with
  | Some cap when total > 0.0 ->
    add "  quorum spread: max MSB holds %.1f%% of total (hard cap %.1f%%)%s\n"
      (100.0 *. max_share) (100.0 *. cap)
      (if max_share > cap +. 1e-9 then "  ** QUORUM AT RISK **" else "")
  | Some _ | None -> ());
  if res.Reservation.dc_affinity <> [] then begin
    let per_dc = Array.make region.Region.num_dcs 0.0 in
    Array.iteri
      (fun m v ->
        let d = region.Region.msb_dc.(m) in
        per_dc.(d) <- per_dc.(d) +. v)
      per_msb;
    List.iter
      (fun (dc, target) ->
        let share = if total > 0.0 then per_dc.(dc) /. res.Reservation.capacity_rru else 0.0 in
        add "  affinity: DC%d holds %.1f%% of requested capacity (target %.1f%% +/- %.1f%%)\n" dc
          (100.0 *. share) (100.0 *. target)
          (100.0 *. res.Reservation.affinity_tolerance))
      res.Reservation.dc_affinity
  end;
  Buffer.contents buf

(* ---------- System metrics: the decoded-owner reads ---------- *)

(* [System.record_metrics]' power draw and down count as first written: the
   usage classifier matches on each server's decoded owner, and the down
   count scans the unavailability column.  Returns (power_variance,
   unavailable_frac). *)
let metrics_reference broker =
  let usage_of (s : Region.server) =
    match Broker.current_owner broker s.Region.id with
    | Broker.Free -> Ras_workload.Power.Idle_free
    | Broker.Shared_buffer -> Ras_workload.Power.Assigned_idle
    | Broker.Reservation _ | Broker.Elastic _ ->
      if Broker.in_use_at broker s.Region.id then Ras_workload.Power.Assigned_busy
      else Ras_workload.Power.Assigned_idle
  in
  let draw = Ras_workload.Power.msb_power (Broker.region broker) ~usage_of in
  let down = ref 0 in
  for id = 0 to Broker.num_servers broker - 1 do
    if not (Broker.healthy_at broker id) then incr down
  done;
  let down = !down in
  ( Ras_workload.Power.normalized_variance draw,
    float_of_int down /. float_of_int (Broker.num_servers broker) )

(* ---------- primal heuristic: the Hashtbl implementation ---------- *)

(* Moves each pass of [repair_reference] made: top-ups from unassigned
   supply, steals from donors, spread and affinity swaps. *)
type heuristic_moves = {
  mutable free : int;
  mutable donor : int;
  mutable spread : int;
  mutable affinity : int;
}

(* [Formulation.round_lp], [repair] and the two local searches as first
   written: counts in a Hashtbl keyed by (class index, reservation id), the
   pairs regrouped by class and by reservation on every call.  The
   pair-indexed count table must make every decision they make. *)
let round_lp_reference (t : Formulation.t) lp_solution =
  let open Formulation in
  let by_class = Hashtbl.create 64 in
  Array.iter
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
            let x = Float.max 0.0 (count lp_solution p) in
            let fl = Float.floor (x +. 1e-9) in
            (p, int_of_float fl, x -. fl))
          ps
      in
      let total_lp = List.fold_left (fun acc p -> acc +. Float.max 0.0 (count lp_solution p)) 0.0 ps in
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

let improve_spread_reference (t : Formulation.t) ~moves ~counts ~class_used =
  let open Formulation in
  let region = t.symmetry.Symmetry.region in
  let num_msbs = region.Region.num_msbs in
  let num_dcs = region.Region.num_dcs in
  let pairs_of_res = Hashtbl.create 32 in
  Array.iter
    (fun p ->
      let existing = try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> [] in
      Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
    t.pairs;
  let value p = p.res.Reservation.rru_of (Ras_topology.Hardware.catalog.(p.cls.Symmetry.hw)) in
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
        (* the datacenter-affinity guard, added after the pair-indexed
           rewrite was pinned against this function: a move between
           datacenters may not take the reservation further outside its
           affinity window *)
        let declared = res.Reservation.dc_affinity in
        let cr = res.Reservation.capacity_rru and theta = res.Reservation.affinity_tolerance in
        let violation dc_rru =
          let v = ref 0.0 in
          for d = 0 to num_dcs - 1 do
            let lo, hi =
              match List.assoc_opt d declared with
              | Some a -> ((a -. theta) *. cr, (a +. theta) *. cr)
              | None -> (0.0, infinity)
            in
            v := !v +. (Float.max 0.0 (lo -. dc_rru.(d)) +. Float.max 0.0 (dc_rru.(d) -. hi))
          done;
          !v
        in
        let keeps_affinity p_from p_to =
          let dc_of p = region.Region.msb_dc.(p.cls.Symmetry.msb) in
          if declared = [] || dc_of p_from = dc_of p_to then true
          else begin
            let dc_rru = Array.make num_dcs 0.0 in
            for m = 0 to num_msbs - 1 do
              let d = region.Region.msb_dc.(m) in
              dc_rru.(d) <- dc_rru.(d) +. msb_rru.(m)
            done;
            let before = violation dc_rru in
            dc_rru.(dc_of p_from) <- dc_rru.(dc_of p_from) -. value p_from;
            dc_rru.(dc_of p_to) <- dc_rru.(dc_of p_to) +. value p_to;
            violation dc_rru <= before +. 1e-9
          end
        in
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
                          && keeps_affinity p_from p_to
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
              moves.spread <- moves.spread + 1;
              msb_rru.(p_from.cls.Symmetry.msb) <-
                msb_rru.(p_from.cls.Symmetry.msb) -. value p_from;
              msb_rru.(p_to.cls.Symmetry.msb) <- msb_rru.(p_to.cls.Symmetry.msb) +. value p_to;
              improved := true
            | None -> ()
          end
        done
      end)
    t.reservations

let improve_affinity_reference (t : Formulation.t) ~moves ~counts ~class_used =
  let open Formulation in
  let region = t.symmetry.Symmetry.region in
  let dc_of cls = region.Region.msb_dc.(cls.Symmetry.msb) in
  let pairs_of_res = Hashtbl.create 32 in
  Array.iter
    (fun p ->
      let existing = try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> [] in
      Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
    t.pairs;
  let value p = p.res.Reservation.rru_of (Ras_topology.Hardware.catalog.(p.cls.Symmetry.hw)) in
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
        (* the expression (6) guard, added after the pair-indexed rewrite was
           pinned against this function: a buffered reservation's surviving
           capacity (total minus the fullest MSB) may not drop below the
           request, or lower further when it is already below *)
        let num_msbs = region.Region.num_msbs in
        let buffered = res.Reservation.embedded_buffer && num_msbs > 1 in
        let msb_rru = Array.make num_msbs 0.0 and must_keep = ref 0.0 in
        let survives p_from p_to =
          let total = ref 0.0 and fullest = ref 0.0 in
          Array.iteri
            (fun m v ->
              let v = if m = p_from.cls.Symmetry.msb then v -. value p_from else v in
              let v = if m = p_to.cls.Symmetry.msb then v +. value p_to else v in
              total := !total +. v;
              fullest := Float.max !fullest v)
            msb_rru;
          !total -. !fullest >= !must_keep
        in
        let guard = ref 0 and progress = ref true in
        while violation () > 1e-6 && !progress && !guard < 500 do
          progress := false;
          incr guard;
          Array.fill msb_rru 0 num_msbs 0.0;
          List.iter
            (fun p ->
              msb_rru.(p.cls.Symmetry.msb) <-
                msb_rru.(p.cls.Symmetry.msb) +. (value p *. float_of_int (count_of p)))
            my_pairs;
          must_keep :=
            Float.min cr
              (Array.fold_left ( +. ) 0.0 msb_rru -. Array.fold_left Float.max 0.0 msb_rru)
            -. 1e-9;
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
                      if
                        after < before -. 1e-9
                        && value p_to >= value p_from -. 1e-9
                        && ((not buffered) || survives p_from p_to)
                      then begin
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
            moves.affinity <- moves.affinity + 1;
            dc_rru.(dc_of p_from.cls) <- dc_rru.(dc_of p_from.cls) -. value p_from;
            dc_rru.(dc_of p_to.cls) <- dc_rru.(dc_of p_to.cls) +. value p_to;
            progress := true
          | None -> ()
        done
      end)
    t.reservations

(* Returns the repaired solution and the moves each pass made. *)
let repair_reference (t : Formulation.t) solution =
  let open Formulation in
  let moves = { free = 0; donor = 0; spread = 0; affinity = 0 } in
  let nclasses = Array.length t.symmetry.Symmetry.classes in
  let num_msbs = t.symmetry.Symmetry.region.Region.num_msbs in
  let counts = Hashtbl.create 256 in
  let class_used = Array.make nclasses 0 in
  let res_total = Hashtbl.create 32 in
  List.iter
    (fun res -> Hashtbl.replace res_total res.Reservation.id (ref 0.0))
    t.reservations;
  Array.iter
    (fun p ->
      let c = int_of_float (Float.round (count solution p)) in
      Hashtbl.replace counts (p.cls.Symmetry.index, p.res.Reservation.id) (ref c);
      class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + c;
      let v = p.res.Reservation.rru_of (Ras_topology.Hardware.catalog.(p.cls.Symmetry.hw)) in
      let total = Hashtbl.find res_total p.res.Reservation.id in
      total := !total +. (v *. float_of_int c))
    t.pairs;
  let value p = p.res.Reservation.rru_of (Ras_topology.Hardware.catalog.(p.cls.Symmetry.hw)) in
  let count_of p = !(Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id)) in
  let bump p delta =
    let r = Hashtbl.find counts (p.cls.Symmetry.index, p.res.Reservation.id) in
    r := !r + delta;
    class_used.(p.cls.Symmetry.index) <- class_used.(p.cls.Symmetry.index) + delta;
    let total = Hashtbl.find res_total p.res.Reservation.id in
    total := !total +. (value p *. float_of_int delta)
  in
  let pairs_of_res = Hashtbl.create 32 in
  Array.iter
    (fun p ->
      let existing =
        try Hashtbl.find pairs_of_res p.res.Reservation.id with Not_found -> []
      in
      Hashtbl.replace pairs_of_res p.res.Reservation.id (p :: existing))
    t.pairs;
  let pairs_of_class = Hashtbl.create 64 in
  Array.iter
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
          moves.free <- moves.free + 1;
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
            moves.donor <- moves.donor + 1;
            msb_rru.(my_p.cls.Symmetry.msb) <- msb_rru.(my_p.cls.Symmetry.msb) +. value my_p;
            progress := true
          | None -> ())
      done)
    t.reservations;
  improve_spread_reference t ~moves ~counts ~class_used;
  improve_affinity_reference t ~moves ~counts ~class_used;
  (encode t (fun p -> count_of p), moves)

(* Seeded variants of a root-LP optimum for the heuristic pin: every count
   is shrunk and jittered, leaving reservations short while classes keep
   free supply; with [fill] each class's leftover supply also goes to one of
   its pairs, so only donors can cover a shortfall.  Class supply holds. *)
let perturb_lp rng (f : Formulation.t) ~fill x =
  let y = Array.copy x in
  let pair i = f.Formulation.pairs.(i) in
  let get i = Formulation.count y (pair i) in
  (* a count goes to the pair's held column first, as [Formulation.encode]
     puts it *)
  let set i v =
    let p = pair i in
    let kept = Float.min v (float_of_int p.Formulation.current) in
    if p.Formulation.held >= 0 then y.(p.Formulation.held) <- kept;
    if p.Formulation.added >= 0 then y.(p.Formulation.added) <- v -. kept
  in
  Array.iter
    (fun ps ->
      if ps <> [||] then begin
        let size = float_of_int (Symmetry.size (pair ps.(0)).Formulation.cls) in
        Array.iter
          (fun i ->
            set i ((Formulation.count x (pair i) *. Ras_stats.Rng.float rng 1.0) +. Ras_stats.Rng.float rng 1.5))
          ps;
        let sum = Array.fold_left (fun acc i -> acc +. get i) 0.0 ps in
        if sum > size then Array.iter (fun i -> set i (get i *. size /. sum)) ps
        else if fill then begin
          let i = ps.(Ras_stats.Rng.int rng (Array.length ps)) in
          set i (get i +. (size -. sum))
        end
      end)
    f.Formulation.class_pairs;
  y

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

(* [Formulation.repair (round_lp x)] against the oracle, bit for bit at
   both stages; adds the oracle's moves into [total]. *)
let heuristic_matches ~total (f : Formulation.t) x =
  let rounded = Formulation.round_lp f x and rounded_ref = round_lp_reference f x in
  let repaired_ref, moves = repair_reference f rounded_ref in
  total.free <- total.free + moves.free;
  total.donor <- total.donor + moves.donor;
  total.spread <- total.spread + moves.spread;
  total.affinity <- total.affinity + moves.affinity;
  same_bits rounded rounded_ref && same_bits (Formulation.repair f rounded) repaired_ref

(* ---------- LP and MIP: a dense tableau simplex ---------- *)

(* An LP reference that shares no code with Ras_mip.Simplex or
   Ras_mip.Basis: the textbook two-phase tableau simplex under Bland's rule
   (lowest-index entering column, lowest-index leaving basic on ratio
   ties), which terminates on every input.  Bounds are shifted and split
   into nonnegative columns — x = l + p with a row p <= u - l when both
   bounds are finite, x = u - p when only the upper one is, x = p - q when
   neither is — and each row gets a slack, so the tableau solves
   min c.p  s.t.  A p = b, p >= 0.  Rows whose slack cannot start basic
   get an artificial for phase 1.  Dense O(rows x columns) work per pivot:
   for the differential battery's and the golden corpus's small models
   only. *)

type lp_verdict =
  | Lp_optimal of { obj : float; x : float array }
  | Lp_infeasible
  | Lp_unbounded

let lp_verdict_name = function
  | Lp_optimal { obj; _ } -> Printf.sprintf "optimal %g" obj
  | Lp_infeasible -> "infeasible"
  | Lp_unbounded -> "unbounded"

(* reduced costs at or below [-lp_eps] improve; entries at or below
   [lp_eps] never pivot *)
let lp_eps = 1e-9

exception Tableau_unbounded

(* Pivot the tableau [tab] (rows of [ncols] coefficients, then the
   right-hand side) and its reduced-cost row [d] (the negated objective
   value last) on row [r], column [c]. *)
let tableau_pivot tab d basis r c =
  let pr = tab.(r) in
  let p = pr.(c) in
  Array.iteri (fun k v -> pr.(k) <- v /. p) pr;
  let eliminate row =
    let f = row.(c) in
    if f <> 0.0 then Array.iteri (fun k v -> row.(k) <- row.(k) -. (f *. v)) pr
  in
  Array.iteri (fun i row -> if i <> r then eliminate row) tab;
  eliminate d;
  basis.(r) <- c

(* Bland's rule from the current basis, entering only [allowed] columns;
   raises [Tableau_unbounded] on an improving column no row blocks. *)
let tableau_optimize tab d basis ~allowed =
  let ncols = Array.length d - 1 in
  let rec loop () =
    let rec entering c =
      if c >= ncols then None
      else if allowed c && d.(c) < -.lp_eps then Some c
      else entering (c + 1)
    in
    match entering 0 with
    | None -> ()
    | Some c ->
      let best = ref (-1) and best_ratio = ref infinity in
      Array.iteri
        (fun i row ->
          let a = row.(c) in
          if a > lp_eps then begin
            let ratio = row.(ncols) /. a in
            if
              ratio < !best_ratio
              || (ratio = !best_ratio && basis.(i) < basis.(!best))
            then begin
              best := i;
              best_ratio := ratio
            end
          end)
        tab;
      if !best < 0 then raise Tableau_unbounded;
      tableau_pivot tab d basis !best c;
      loop ()
  in
  loop ()

(* [d] := cost - cost_B B^-1 A over the current tableau. *)
let tableau_prices tab basis cost =
  let d = Array.copy cost in
  Array.iteri
    (fun i row ->
      let cb = cost.(basis.(i)) in
      if cb <> 0.0 then Array.iteri (fun k v -> d.(k) <- d.(k) -. (cb *. v)) row)
    tab;
  d

let lp_reference ?lb ?ub (std : Ras_mip.Model.std) =
  let module Model = Ras_mip.Model in
  let n = std.Model.nvars in
  let lb = Option.value lb ~default:std.Model.lb and ub = Option.value ub ~default:std.Model.ub in
  if Array.exists2 (fun l u -> l > u) lb ub then Lp_infeasible
  else begin
    (* x_j = shift.(j) + sum of sign * p over its columns *)
    let shift = Array.make n 0.0 and cols = Array.make n [] in
    let np = ref 0 and bound_rows = ref [] in
    let fresh sign =
      let c = !np in
      incr np;
      (c, sign)
    in
    for j = 0 to n - 1 do
      let l = lb.(j) and u = ub.(j) in
      if Float.is_finite l then begin
        shift.(j) <- l;
        let ((c, _) as p) = fresh 1.0 in
        cols.(j) <- [ p ];
        if Float.is_finite u then bound_rows := (c, u -. l) :: !bound_rows
      end
      else if Float.is_finite u then begin
        shift.(j) <- u;
        cols.(j) <- [ fresh (-1.0) ]
      end
      else cols.(j) <- [ fresh 1.0; fresh (-1.0) ]
    done;
    let np = !np and bound_rows = List.rev !bound_rows in
    let m = std.Model.nrows + List.length bound_rows in
    (* structural columns, one slack per row, then one artificial per row
       (used only where the slack cannot start basic) *)
    let ncols = np + m + m in
    let tab = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
    let art = Array.make m false in
    let fill i (entries : (int * float) list) sense rhs =
      let row = tab.(i) in
      List.iter (fun (c, v) -> row.(c) <- row.(c) +. v) entries;
      (match sense with
      | Model.Le -> row.(np + i) <- 1.0
      | Model.Ge -> row.(np + i) <- -1.0
      | Model.Eq -> ());
      row.(ncols) <- rhs;
      if rhs < 0.0 then Array.iteri (fun k v -> row.(k) <- -.v) row;
      art.(i) <- sense = Model.Eq || row.(np + i) < 0.0
    in
    for i = 0 to std.Model.nrows - 1 do
      let entries = ref [] and rhs = ref std.Model.rhs.(i) in
      Array.iteri
        (fun k j ->
          let a = std.Model.row_coefs.(i).(k) in
          rhs := !rhs -. (a *. shift.(j));
          List.iter (fun (c, sign) -> entries := (c, a *. sign) :: !entries) cols.(j))
        std.Model.row_cols.(i);
      fill i !entries std.Model.row_sense.(i) !rhs
    done;
    List.iteri
      (fun k (c, width) -> fill (std.Model.nrows + k) [ (c, 1.0) ] Model.Le width)
      bound_rows;
    let basis =
      Array.init m (fun i ->
          if art.(i) then begin
            tab.(i).(np + m + i) <- 1.0;
            np + m + i
          end
          else np + i)
    in
    let is_art c = c >= np + m in
    (* phase 1: minimize the sum of the artificials *)
    let art_cost = Array.init (ncols + 1) (fun c -> if c < ncols && is_art c then 1.0 else 0.0) in
    tableau_optimize tab (tableau_prices tab basis art_cost) basis ~allowed:(fun _ -> true);
    let scale = Array.fold_left (fun a row -> Float.max a (Float.abs row.(ncols))) 1.0 tab in
    let infeasibility = ref 0.0 in
    Array.iteri
      (fun i c -> if is_art c then infeasibility := !infeasibility +. tab.(i).(ncols))
      basis;
    if !infeasibility > 1e-7 *. scale then Lp_infeasible
    else begin
      (* drive the artificials left at zero out of the basis; a row with no
         other nonzero is redundant and drops *)
      let live = Array.make m true in
      Array.iteri
        (fun i c ->
          if is_art c then
            let row = tab.(i) in
            let rec find k =
              if k >= np + m then None else if Float.abs row.(k) > lp_eps then Some k else find (k + 1)
            in
            match find 0 with
            | Some k -> tableau_pivot tab (Array.make (ncols + 1) 0.0) basis i k
            | None -> live.(i) <- false)
        (Array.copy basis);
      let keep = List.filter (fun i -> live.(i)) (List.init m Fun.id) in
      let tab = Array.of_list (List.map (fun i -> tab.(i)) keep) in
      let basis = Array.of_list (List.map (fun i -> basis.(i)) keep) in
      (* phase 2 costs: c_j times each of x_j's column signs *)
      let cost = Array.make (ncols + 1) 0.0 in
      for j = 0 to n - 1 do
        List.iter (fun (c, sign) -> cost.(c) <- std.Model.obj.(j) *. sign) cols.(j)
      done;
      let d = tableau_prices tab basis cost in
      match tableau_optimize tab d basis ~allowed:(fun c -> not (is_art c)) with
      | exception Tableau_unbounded -> Lp_unbounded
      | () ->
        let p = Array.make ncols 0.0 in
        Array.iteri (fun i c -> p.(c) <- tab.(i).(ncols)) basis;
        let x =
          Array.init n (fun j ->
              List.fold_left (fun a (c, sign) -> a +. (sign *. p.(c))) shift.(j) cols.(j))
        in
        Lp_optimal { obj = Model.objective_value std x; x }
    end
  end

type mip_verdict = Mip_optimal of float | Mip_infeasible | Mip_unbounded

(* A depth-first branch-and-bound over [lp_reference]: branch on the
   first integer variable more than 1e-6 from an integer, down branch
   first; prune a node whose LP bound does not beat the incumbent by more
   than 1e-9.  An unbounded node LP makes the model unbounded, as in
   Ras_mip.Branch_bound.  For small models with finite integer bounds. *)
let mip_reference (std : Ras_mip.Model.std) =
  let module Model = Ras_mip.Model in
  let best = ref infinity and unbounded = ref false in
  let rec explore lb ub =
    if not !unbounded then
      match lp_reference ~lb ~ub std with
      | Lp_unbounded -> unbounded := true
      | Lp_infeasible -> ()
      | Lp_optimal { obj; x } when obj < !best -. 1e-9 -> (
        let fractional j =
          std.Model.integer.(j) && Float.abs (x.(j) -. Float.round x.(j)) > 1e-6
        in
        match List.find_opt fractional (List.init std.Model.nvars Fun.id) with
        | None -> best := obj
        | Some j ->
          let down = Array.copy ub and up = Array.copy lb in
          down.(j) <- Float.floor x.(j);
          up.(j) <- Float.ceil x.(j);
          explore lb down;
          explore up ub)
      | Lp_optimal _ -> ()
  in
  (* integer bounds rounded inward, as the solver does at the root *)
  let inward round b = Array.mapi (fun j v -> if std.Model.integer.(j) then round v else v) b in
  explore (inward Float.ceil std.Model.lb) (inward Float.floor std.Model.ub);
  if !unbounded then Mip_unbounded
  else if !best < infinity then Mip_optimal !best
  else Mip_infeasible

(* ---------- LP optimality certificate ---------- *)

(* Checks an optimal LP result from its primal point [x] (one entry per
   structural), row duals [duals] and reported objective [obj], against
   the model and optional bound overrides, reading nothing of the solver's
   internals.  With slacks s = b - Ax (Le rows s >= 0, Ge rows s <= 0, Eq
   rows s = 0), reduced costs d = c - A^T y and the slack's reduced cost
   -y_i, it checks:
   - primal feasibility: every row and bound within 1e-6 (scale-relative);
   - dual feasibility: a column strictly inside its bounds has |d_j| at
     most 1e-6, one resting only on its lower bound d_j >= -1e-6, one
     resting only on its upper bound d_j <= 1e-6 (so a Le row's dual is
     <= 0, a Ge row's >= 0, and a non-binding row's is 0);
   - strong duality: the dual objective y.b + sum_j d_j * (the bound d_j's
     sign selects) + offset equals [obj] to 1e-6 relative.  Weak duality
     makes that a proof of optimality; a reduced cost within tolerance of
     zero is charged at the point's value instead of an infinite bound.
   Returns the first violation found. *)
let lp_certificate ?lb ?ub (std : Ras_mip.Model.std) ~x ~duals ~obj =
  let module Model = Ras_mip.Model in
  let lb = Option.value lb ~default:std.Model.lb and ub = Option.value ub ~default:std.Model.ub in
  let n = std.Model.nvars and m = std.Model.nrows in
  let ptol v = 1e-6 *. (1.0 +. Float.abs v) and dtol = 1e-6 in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  if Array.length x <> n || Array.length duals <> m then
    fail "x has %d entries for %d columns, duals %d for %d rows" (Array.length x) n
      (Array.length duals) m
  else begin
    let dual_obj = ref std.Model.obj_offset in
    (* one column resting at value v in [lo, hi] with reduced cost d *)
    let column what v lo hi d =
      if v < lo -. ptol lo || v > hi +. ptol hi then
        fail "%s = %.9g outside [%g, %g]" what v lo hi;
      let at_lo = Float.is_finite lo && v <= lo +. ptol lo in
      let at_hi = Float.is_finite hi && v >= hi -. ptol hi in
      let ok =
        (at_lo && at_hi) || (at_lo && d >= -.dtol) || (at_hi && d <= dtol) || Float.abs d <= dtol
      in
      if not ok then
        fail "%s = %.9g in [%g, %g] has reduced cost %.3g of the wrong sign" what v lo hi d;
      dual_obj :=
        !dual_obj
        +.
        if Float.abs d <= dtol then d *. v
        else if d > 0.0 then d *. lo
        else d *. hi
    in
    let activity = Array.make m 0.0 in
    for j = 0 to n - 1 do
      let d = ref std.Model.obj.(j) in
      for k = std.Model.col_ptr.(j) to std.Model.col_ptr.(j + 1) - 1 do
        let i = std.Model.col_ind.(k) and a = std.Model.col_val.(k) in
        activity.(i) <- activity.(i) +. (a *. x.(j));
        d := !d -. (duals.(i) *. a)
      done;
      column (Printf.sprintf "column %d" j) x.(j) lb.(j) ub.(j) !d
    done;
    for i = 0 to m - 1 do
      let b = std.Model.rhs.(i) in
      dual_obj := !dual_obj +. (duals.(i) *. b);
      let lo, hi =
        match std.Model.row_sense.(i) with
        | Model.Le -> (0.0, infinity)
        | Model.Ge -> (neg_infinity, 0.0)
        | Model.Eq -> (0.0, 0.0)
      in
      (* the slack's feasibility is the row's, scaled by its right-hand side *)
      let s = b -. activity.(i) in
      let s = if Float.abs s <= ptol b then 0.0 else s in
      column (Printf.sprintf "row %d slack" i) s lo hi (-.duals.(i))
    done;
    if Float.abs (!dual_obj -. obj) > 1e-6 *. Float.max 1.0 (Float.abs obj) then
      fail "dual objective %.12g vs primal %.12g" !dual_obj obj
  end;
  match !error with None -> Ok () | Some e -> Error e

(* B⁻¹b through [t]'s factors into a fresh array, leaving [b] as it is:
   the all-steps solve the LU batteries pin the sparse ones against and
   take residuals of. *)
let ftran_dense t b =
  let x = Array.copy b in
  Ras_mip.Basis.ftran_dense_in_place t x;
  x

(* ---------- LU accuracy: residuals against the basis columns ---------- *)

(* Normwise backward errors of a basis solve, with B rebuilt from the
   basis columns ([col j f] calls [f row coef] for column [j]'s nonzeros;
   position [p] of B is column [basis.(p)]) and nothing of the
   factorization read: ‖B·x − b‖∞ / (‖B‖∞·‖x‖∞ + ‖b‖∞) for an FTRAN
   result [x] (basis-position-indexed) of a row-indexed [b], and
   ‖Bᵀ·y − c‖∞ / (‖B‖₁·‖y‖∞ + ‖c‖∞) for a BTRAN result [y]
   (row-indexed) of a position-indexed [c].  A backward-stable solve
   reads a small multiple of the unit roundoff; a wrong factor entry or
   eta reads O(1).  0 when both sides are zero. *)
let inf_norm a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

let backward_error resid ~scale = if resid = 0.0 then 0.0 else resid /. scale

let ftran_residual ~basis ~col x b =
  let r = Array.copy b and row_abs = Array.make (Array.length b) 0.0 in
  Array.iteri
    (fun p j ->
      col j (fun i v ->
          r.(i) <- r.(i) -. (v *. x.(p));
          row_abs.(i) <- row_abs.(i) +. Float.abs v))
    basis;
  backward_error (inf_norm r) ~scale:((inf_norm row_abs *. inf_norm x) +. inf_norm b)

let btran_residual ~basis ~col y c =
  let worst = ref 0.0 and col_abs = ref 0.0 in
  Array.iteri
    (fun p j ->
      let s = ref 0.0 and a = ref 0.0 in
      col j (fun i v ->
          s := !s +. (v *. y.(i));
          a := !a +. Float.abs v);
      worst := Float.max !worst (Float.abs (!s -. c.(p)));
      col_abs := Float.max !col_abs !a)
    basis;
  backward_error !worst ~scale:((!col_abs *. inf_norm y) +. inf_norm c)

(* ---------- model compile: the per-row table and sort ---------- *)

(* [Lin_expr.normalize] as it shipped: duplicates summed in stored order
   in a table, zero sums dropped, sorted by variable. *)
let normalize_reference e =
  let tbl = Hashtbl.create 8 in
  Ras_mip.Lin_expr.iter
    (fun c v ->
      let prev = try Hashtbl.find tbl v with Not_found -> 0.0 in
      Hashtbl.replace tbl v (prev +. c))
    e;
  let combined = Hashtbl.fold (fun v c acc -> if c <> 0.0 then (c, v) :: acc else acc) tbl [] in
  List.sort (fun (_, v1) (_, v2) -> compare v1 v2) combined

(* [Model.compile] as it shipped: a [normalize] table and sort per row,
   then the CSC arrays filled from the sorted rows.  The dense-scratch
   compile must equal it bit for bit. *)
let compile_reference (t : Ras_mip.Model.t) =
  let open Ras_mip.Model in
  let nvars = t.nvars and nrows = t.nrows in
  let obj = Array.make nvars 0.0 in
  let set_obj (c, v) =
    if v < 0 || v >= nvars then invalid_arg "Model.compile: objective references unknown variable";
    obj.(v) <- obj.(v) +. c
  in
  List.iter set_obj (normalize_reference t.obj);
  let rows = Array.of_list (List.rev t.rows) in
  let row_sense = Array.map (fun r -> r.rsense) rows in
  let rhs = Array.map (fun r -> r.rrhs) rows in
  let row_names = Array.map (fun r -> r.rname) rows in
  let row_cols = Array.make nrows [||] and row_coefs = Array.make nrows [||] in
  let col_count = Array.make nvars 0 in
  let terms_of = Array.make nrows [] in
  Array.iteri
    (fun i r ->
      let ts = normalize_reference r.expr in
      terms_of.(i) <- ts;
      let count (c, v) =
        if v < 0 || v >= nvars then
          invalid_arg (Printf.sprintf "Model.compile: row %s references unknown variable %d" r.rname v);
        if c <> 0.0 then col_count.(v) <- col_count.(v) + 1
      in
      List.iter count ts)
    rows;
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
    obj_offset = Ras_mip.Lin_expr.get_constant t.obj;
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

(* Two compiled models agree bit for bit: every float compared by its
   bits ([%h]), every int array, sense and name.  [None] when they agree,
   else the first field that differs. *)
let std_difference (a : Ras_mip.Model.std) (b : Ras_mip.Model.std) =
  let open Ras_mip.Model in
  let floats xs = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") xs)) in
  let fields =
    [
      ("nvars", a.nvars = b.nvars);
      ("nrows", a.nrows = b.nrows);
      ("obj", floats a.obj = floats b.obj);
      ("obj_offset", Printf.sprintf "%h" a.obj_offset = Printf.sprintf "%h" b.obj_offset);
      ("lb", floats a.lb = floats b.lb);
      ("ub", floats a.ub = floats b.ub);
      ("integer", a.integer = b.integer);
      ("row_sense", a.row_sense = b.row_sense);
      ("rhs", floats a.rhs = floats b.rhs);
      ("col_ptr", a.col_ptr = b.col_ptr);
      ("col_ind", a.col_ind = b.col_ind);
      ("col_val", floats a.col_val = floats b.col_val);
      ("row_cols", a.row_cols = b.row_cols);
      ( "row_coefs",
        Array.length a.row_coefs = Array.length b.row_coefs
        && Array.for_all2 (fun x y -> floats x = floats y) a.row_coefs b.row_coefs );
      ("var_names", a.var_names = b.var_names);
      ("row_names", a.row_names = b.row_names);
    ]
  in
  List.find_map (fun (name, same) -> if same then None else Some name) fields

(* ---------- formulation: the pos-part stability term ---------- *)

(* [Formulation.build]'s model as it shipped before expression (1) became
   a bound split: one integer count column per (class, reservation) pair,
   and per pair whose reservation holds N0 > 0 of the class's servers a
   move variable [y >= N0 - n] with its row, weighted by the move cost.
   Every other expression as [Formulation.build] states it, over the count
   column.  The two are the same LP and the same MIP in the pair counts,
   so their optima agree; only the vertex may differ. *)
let formulation_reference ?(params = Formulation.default_params) ?(rack_level = false)
    (symmetry : Symmetry.t) =
  let module Model = Ras_mip.Model in
  let module Lin = Ras_mip.Lin_expr in
  let p = params in
  let reservations = symmetry.Symmetry.snapshot.Snapshot.reservations in
  let region = symmetry.Symmetry.region in
  let model = Model.create () in
  (* per reservation position: its (class, count column, RRU) terms *)
  let res_terms = Array.make (List.length reservations) [] in
  let class_vars = Array.make (Symmetry.num_classes symmetry) [] in
  Array.iter
    (fun (cls : Symmetry.cls) ->
      List.iteri
        (fun ri (res : Reservation.t) ->
          let rru = res.Reservation.rru_of Ras_topology.Hardware.catalog.(cls.Symmetry.hw) in
          if rru > 0.0 then begin
            let v =
              Model.add_var
                ~name:(Printf.sprintf "n_%s_r%d" (Symmetry.class_name cls) res.Reservation.id)
                ~lb:0.0
                ~ub:(float_of_int (Symmetry.size cls))
                ~kind:Model.Integer model
            in
            let wear =
              p.Formulation.wear_penalty *. res.Reservation.io_intensity
              *. float_of_int cls.Symmetry.attr
            in
            Model.add_to_objective model (Lin.term (p.Formulation.assignment_cost +. wear) v);
            res_terms.(ri) <- (cls, v, rru) :: res_terms.(ri);
            class_vars.(cls.Symmetry.index) <- v :: class_vars.(cls.Symmetry.index)
          end)
        reservations)
    symmetry.Symmetry.classes;
  Array.iteri
    (fun idx vs ->
      if vs <> [] then
        ignore
          (Model.add_constraint model
             (Lin.of_terms (List.map (fun v -> (1.0, v)) vs))
             Model.Le
             (float_of_int (Symmetry.size symmetry.Symmetry.classes.(idx)))))
    class_vars;
  let slack ~weight =
    let v = Model.add_var ~lb:0.0 model in
    Model.add_to_objective model (Lin.term weight v);
    v
  in
  (* per scope (MSB, datacenter, rack) in ascending order, the terms in it *)
  let group terms ~scope_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (cls, v, rru) ->
        let g = scope_of cls in
        if g >= 0 then
          Hashtbl.replace tbl g ((rru, v) :: Option.value (Hashtbl.find_opt tbl g) ~default:[]))
      terms;
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun g ts acc -> (g, Lin.of_terms ts) :: acc) tbl [])
  in
  List.iteri
    (fun ri (res : Reservation.t) ->
      let terms = res_terms.(ri) in
      let total = Lin.of_terms (List.map (fun (_, v, rru) -> (rru, v)) terms) in
      let by_msb = group terms ~scope_of:(fun c -> c.Symmetry.msb) in
      let cr = res.Reservation.capacity_rru in
      let z_term =
        if res.Reservation.embedded_buffer && region.Region.num_msbs > 1 then
          Lin.term (-1.0)
            (Model.add_max_over model ~weight:p.Formulation.buffer_cost (List.map snd by_msb))
        else Lin.zero
      in
      let s = slack ~weight:p.Formulation.capacity_slack_cost in
      ignore
        (Model.add_constraint model (Lin.add (Lin.add total z_term) (Lin.var s)) Model.Ge cr);
      List.iter
        (fun (_, e) ->
          ignore
            (Model.add_pos_part model ~weight:p.Formulation.spread_penalty
               (Lin.sub e (Lin.constant (res.Reservation.msb_spread_limit *. cr)))))
        by_msb;
      Option.iter
        (fun cap ->
          List.iter
            (fun (_, e) ->
              let s = slack ~weight:p.Formulation.capacity_slack_cost in
              ignore
                (Model.add_constraint model
                   (Lin.sub (Lin.sub e (Lin.scale cap total)) (Lin.var s))
                   Model.Le 0.0))
            by_msb)
        res.Reservation.hard_msb_cap;
      (match (rack_level, res.Reservation.rack_spread_limit) with
      | true, Some alpha_k ->
        List.iter
          (fun (_, e) ->
            ignore
              (Model.add_pos_part model ~weight:p.Formulation.spread_penalty
                 (Lin.sub e (Lin.constant (alpha_k *. cr)))))
          (group terms ~scope_of:(fun c -> Option.value c.Symmetry.rack ~default:(-1)))
      | _ -> ());
      if res.Reservation.dc_affinity <> [] then begin
        let by_dc = group terms ~scope_of:(fun c -> region.Region.msb_dc.(c.Symmetry.msb)) in
        let theta = res.Reservation.affinity_tolerance in
        List.iter
          (fun (dc, target) ->
            let e = Option.value (List.assoc_opt dc by_dc) ~default:Lin.zero in
            let lo = slack ~weight:p.Formulation.affinity_slack_cost in
            let hi = slack ~weight:p.Formulation.affinity_slack_cost in
            ignore
              (Model.add_constraint model (Lin.add e (Lin.var lo)) Model.Ge
                 ((target -. theta) *. cr));
            ignore
              (Model.add_constraint model (Lin.sub e (Lin.var hi)) Model.Le
                 ((target +. theta) *. cr)))
          res.Reservation.dc_affinity
      end;
      (* expression (1): a move variable and row per held pair *)
      let owner = Reservation.owner res in
      List.iter
        (fun ((cls : Symmetry.cls), v, _) ->
          let n0 = Symmetry.current_count symmetry cls owner in
          if n0 > 0 then
            ignore
              (Model.add_pos_part model
                 ~weight:
                   (if cls.Symmetry.in_use then p.Formulation.move_cost_in_use
                    else p.Formulation.move_cost_unused)
                 (Lin.sub (Lin.constant (float_of_int n0)) (Lin.var v))))
        terms)
    reservations;
  model
