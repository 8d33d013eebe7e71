module Broker = Ras_broker.Broker

type move = { server : int; from_ : Broker.owner; to_ : Broker.owner; was_in_use : bool }

type plan = { moves : move list; targets : (int * Broker.owner) list; covers : int -> bool }

let free_code = Broker.owner_code Broker.Free

(* A read position in a class's unmet quotas, laid end to end in quota
   order: [q] is the quota being filled and [left] its unfilled slots. *)
type cursor = { mutable q : int; mutable left : int }

let cursor_at (unmet : (int * int) array) pos =
  let q = ref 0 and pos = ref pos in
  while !q < Array.length unmet && !pos >= snd unmet.(!q) do
    pos := !pos - snd unmet.(!q);
    incr q
  done;
  { q = !q; left = (if !q < Array.length unmet then snd unmet.(!q) - !pos else 0) }

(* The owner code of the cursor's slot, then step; past the last quota a
   server returns to the free pool. *)
let take unmet c =
  if c.q >= Array.length unmet then free_code
  else begin
    let code = fst unmet.(c.q) in
    c.left <- c.left - 1;
    if c.left = 0 then begin
      c.q <- c.q + 1;
      if c.q < Array.length unmet then c.left <- snd unmet.(c.q)
    end;
    code
  end

(* Two ascending runs of moves on distinct servers, merged. *)
let merge_runs a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' -> if x.server < y.server then go (x :: acc) a' b else go (y :: acc) a b'
  in
  go [] a b

(* Ascending runs on disjoint servers, merged pairwise until one is left:
   O(moves · log runs). *)
let rec merge_all = function
  | [] -> []
  | [ run ] -> run
  | runs ->
    let rec pairs = function a :: b :: rest -> merge_runs a b :: pairs rest | rest -> rest in
    merge_all (pairs runs)

let moves_of (f : Formulation.t) (assignment : Formulation.assignment) =
  let sym = f.Formulation.symmetry in
  let snapshot = sym.Symmetry.snapshot in
  let quotas = Array.make (Symmetry.num_classes sym) [] in
  let max_code = ref free_code in
  List.iter
    (fun (cls, res, count) ->
      let owner = Reservation.owner res in
      max_code := Int.max !max_code (Broker.owner_code owner);
      quotas.(cls.Symmetry.index) <- (owner, count) :: quotas.(cls.Symmetry.index))
    assignment.Formulation.counts;
  (* keep.(c): members currently owned by [c] that stay with it; zeroed
     again after each class *)
  let keep = Array.make (!max_code + 1) 0 in
  let kept c = if c <= !max_code then keep.(c) else 0 in
  (* each class's walk visits its members in ascending id order, so its
     moves form one ascending run *)
  let runs = ref [] in
  Array.iter
    (fun (cls : Symmetry.cls) ->
      let quotas = quotas.(cls.Symmetry.index) in
      (* stability first: each owner keeps up to its quota of the members it
         already has, the lowest ids first *)
      let unmet =
        List.filter_map
          (fun (owner, want) ->
            let code = Broker.owner_code owner in
            let have = Int.min want (Symmetry.current_count sym cls owner) in
            keep.(code) <- Int.max keep.(code) have;
            if want > have then Some (owner, want - have) else None)
          quotas
        |> List.sort compare
        |> List.map (fun (owner, missing) -> (Broker.owner_code owner, missing))
        |> Array.of_list
      in
      (* the surplus pool, free members first and then by id, fills the unmet
         quotas in order: free members take its first slots, the others
         follow them.  An owned surplus member always moves, a free one
         only while slots are left, so a class whose owners all keep every
         member and whose free members meet no slot moves nothing *)
      let free_surplus = Symmetry.current_count sym cls Broker.Free - kept free_code in
      let moves_nothing =
        (Array.length unmet = 0 || free_surplus = 0)
        &&
        let { Symmetry.first; codes; counts } = sym.Symmetry.owner_counts in
        let rec all_kept k =
          k = first.(cls.Symmetry.index + 1)
          || ((codes.(k) = free_code || kept codes.(k) = counts.(k)) && all_kept (k + 1))
        in
        all_kept first.(cls.Symmetry.index)
      in
      if not moves_nothing then begin
        let from_free = cursor_at unmet 0 and from_owned = cursor_at unmet free_surplus in
        let moves = ref [] in
        Array.iter
          (fun id ->
            let c = Snapshot.current_code snapshot id in
            if kept c > 0 then keep.(c) <- keep.(c) - 1
            else begin
              let target = take unmet (if c = free_code then from_free else from_owned) in
              if target <> c then
                moves :=
                  {
                    server = id;
                    from_ = Broker.owner_of_code c;
                    to_ = Broker.owner_of_code target;
                    was_in_use = Snapshot.in_use_at snapshot id;
                  }
                  :: !moves
            end)
          cls.Symmetry.members;
        if !moves <> [] then runs := List.rev !moves :: !runs
      end;
      List.iter (fun (owner, _) -> keep.(Broker.owner_code owner) <- 0) quotas)
    sym.Symmetry.classes;
  merge_all !runs

(* Every quota is met in full (the counts fit class supply) and a covered
   server that meets none returns to the free pool, so the owners' shares
   follow from the counts without a walk. *)
let held (f : Formulation.t) (assignment : Formulation.assignment) =
  let code_of (_, res, _) = Broker.owner_code (Reservation.owner res) in
  let counts = assignment.Formulation.counts in
  let share = Array.make (List.fold_left (fun m q -> Int.max m (code_of q)) free_code counts + 1) 0 in
  Array.iter
    (fun c -> share.(free_code) <- share.(free_code) + Symmetry.size c)
    f.Formulation.symmetry.Symmetry.classes;
  List.iter
    (fun ((_, _, n) as q) ->
      share.(code_of q) <- share.(code_of q) + n;
      share.(free_code) <- share.(free_code) - n)
    counts;
  fun owner ->
    let c = Broker.owner_code owner in
    if c < Array.length share then share.(c) else 0

let merge (snapshot : Snapshot.t) ~phase1 ~phase2 =
  (* a phase-2 move restated against [snapshot], dropped when it returns
     the server to its snapshot owner *)
  let push acc m =
    let from = Snapshot.current_code snapshot m.server in
    if Broker.owner_code m.to_ = from then acc
    else
      { m with from_ = Broker.owner_of_code from; was_in_use = Snapshot.in_use_at snapshot m.server }
      :: acc
  in
  let rec go acc a b =
    match (a, b) with
    | rest, [] -> List.rev_append acc rest
    | [], m :: b -> go (push acc m) [] b
    | x :: a', y :: b' ->
      if x.server < y.server then go (x :: acc) a' b
      else if x.server > y.server then go (push acc y) a b'
      else go (push acc y) a' b'
  in
  go [] phase1 phase2

let of_moves ~covers moves =
  { moves; targets = List.map (fun m -> (m.server, m.to_)) moves; covers }

let plan (f : Formulation.t) assignment =
  of_moves ~covers:(Snapshot.covers f.Formulation.symmetry.Symmetry.snapshot) (moves_of f assignment)

let moves_in_use plan =
  List.fold_left (fun acc m -> if m.was_in_use then acc + 1 else acc) 0 plan.moves

let moves_unused plan =
  List.fold_left (fun acc m -> if m.was_in_use then acc else acc + 1) 0 plan.moves
