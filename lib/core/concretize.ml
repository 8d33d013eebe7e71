module Broker = Ras_broker.Broker

type move = { server : int; from_ : Broker.owner; to_ : Broker.owner; was_in_use : bool }

type plan = { moves : move list; targets : (int * Broker.owner) list }

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

let write_targets (f : Formulation.t) (assignment : Formulation.assignment) column =
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
  (* keep.(c): members currently owned by [c] that stay with it; zero again
     once a class's walk has met them all *)
  let keep = Array.make (!max_code + 1) 0 in
  Array.iter
    (fun (cls : Symmetry.cls) ->
      (* stability first: each owner keeps up to its quota of the members it
         already has, the lowest ids first *)
      let unmet =
        List.filter_map
          (fun (owner, want) ->
            let code = Broker.owner_code owner in
            let have = Int.min want (Symmetry.current_count sym cls owner) in
            keep.(code) <- Int.max keep.(code) have;
            if want > have then Some (owner, want - have) else None)
          quotas.(cls.Symmetry.index)
        |> List.sort compare
        |> List.map (fun (owner, missing) -> (Broker.owner_code owner, missing))
        |> Array.of_list
      in
      (* the surplus pool, free members first and then by id, fills the unmet
         quotas in order: free members take its first slots, the others
         follow them *)
      let free_surplus = Symmetry.current_count sym cls Broker.Free - keep.(free_code) in
      let from_free = cursor_at unmet 0 and from_owned = cursor_at unmet free_surplus in
      Array.iter
        (fun id ->
          let c = Snapshot.current_code snapshot id in
          column.(id) <-
            (if c <= !max_code && keep.(c) > 0 then begin
               keep.(c) <- keep.(c) - 1;
               c
             end
             else if c = free_code then take unmet from_free
             else take unmet from_owned))
        cls.Symmetry.members)
    sym.Symmetry.classes

let plan_of_column (snapshot : Snapshot.t) column =
  let moves = ref [] and targets = ref [] in
  for id = Array.length column - 1 downto 0 do
    let code = column.(id) in
    if code >= 0 then begin
      let to_ = Broker.owner_of_code code in
      targets := (id, to_) :: !targets;
      let from = Snapshot.current_code snapshot id in
      if code <> from then
        moves :=
          {
            server = id;
            from_ = Broker.owner_of_code from;
            to_;
            was_in_use = Snapshot.in_use_at snapshot id;
          }
          :: !moves
    end
  done;
  { moves = !moves; targets = !targets }

let plan (f : Formulation.t) (assignment : Formulation.assignment) =
  let snapshot = f.Formulation.symmetry.Symmetry.snapshot in
  let column = Array.make (Snapshot.num_servers snapshot) (-1) in
  write_targets f assignment column;
  plan_of_column snapshot column

let moves_in_use plan =
  List.fold_left (fun acc m -> if m.was_in_use then acc + 1 else acc) 0 plan.moves

let moves_unused plan =
  List.fold_left (fun acc m -> if m.was_in_use then acc else acc + 1) 0 plan.moves
