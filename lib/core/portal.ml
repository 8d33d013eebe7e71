module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request

type decision = Accepted | Rejected of string

type event = Submitted of int * decision | Modified of int * decision | Deleted of int

type t = {
  accepted : (int, Capacity_request.t) Hashtbl.t;
  mutable events : event list;  (* newest first *)
  mutable supply_hist : (Snapshot.t * int array) option;
      (* usable-per-subtype histogram of the last snapshot seen (keyed by
         physical identity): admission folds supply over it instead of
         walking 10^6 servers per submit/modify *)
}

let create () = { accepted = Hashtbl.create 32; events = []; supply_hist = None }

let buffer_overhead (region : Region.t) (req : Capacity_request.t) =
  if req.Capacity_request.embedded_buffer && region.Region.num_msbs > 1 then
    1.0 +. (1.0 /. float_of_int (region.Region.num_msbs - 1))
  else 1.0

(* |catalog| RRU evaluations against the usable histogram — the per-server
   form of this loop was an O(n) record build on every submit/modify *)
let supply_of_hist hist service =
  let acc = ref 0.0 in
  Array.iteri
    (fun i n ->
      if n > 0 then acc := !acc +. (float_of_int n *. Service.rru_of service Hw.catalog.(i)))
    hist;
  !acc

let usable_hist t snapshot =
  match t.supply_hist with
  | Some (s, h) when s == snapshot -> h
  | Some _ | None ->
    let h = Snapshot.usable_hw_histogram snapshot in
    t.supply_hist <- Some (snapshot, h);
    h

(* What other accepted requests already claim of this service's acceptable
   supply: conservatively, any request accepting an overlapping hardware
   subtype claims its full demand from the shared pool. *)
let committed_overlapping t snapshot service ~excluding =
  let overlaps (other : Capacity_request.t) =
    Array.exists
      (fun hw ->
        Service.rru_of service hw > 0.0
        && Service.rru_of other.Capacity_request.service hw > 0.0)
      Hw.catalog
  in
  Hashtbl.fold
    (fun id (other : Capacity_request.t) acc ->
      if id <> excluding && overlaps other then
        acc
        +. (other.Capacity_request.rru
           *. buffer_overhead snapshot.Snapshot.region other)
      else acc)
    t.accepted 0.0

let validate t (snapshot : Snapshot.t) (req : Capacity_request.t) ~excluding =
  let service = req.Capacity_request.service in
  let rru = req.Capacity_request.rru in
  let types =
    Array.fold_left
      (fun acc hw -> if Service.rru_of service hw > 0.0 then acc + 1 else acc)
      0 Hw.catalog
  in
  (* a record update can carry any float past [Capacity_request.make]; NaN
     would pass every supply comparison below *)
  if not (Float.is_finite rru && rru > 0.0) then
    Rejected
      (Printf.sprintf "the request asks for %g RRUs; capacity must be a finite positive number"
         rru)
  else if types = 0 then
    Rejected
      (Printf.sprintf
         "no hardware subtype in the region's catalog is acceptable to service %s (categories \
          or CPU-generation limits rule everything out)"
         service.Service.name)
  else begin
    let supply = supply_of_hist (usable_hist t snapshot) service in
    let need = rru *. buffer_overhead snapshot.Snapshot.region req in
    if supply < need then
      Rejected
        (Printf.sprintf
           "the region holds only %.1f acceptable RRUs (across %d subtypes) but the request \
            needs %.1f including its failure-buffer overhead; add hardware or relax the \
            acceptability constraints"
           supply types need)
    else begin
      let committed = committed_overlapping t snapshot service ~excluding in
      if supply -. committed < need then
        Rejected
          (Printf.sprintf
             "acceptable hardware exists (%.1f RRUs) but %.1f is already committed to \
              overlapping reservations, leaving %.1f < the %.1f needed; free capacity or \
              downsize another reservation"
             supply committed (supply -. committed) need)
      else Accepted
    end
  end

let submit t snapshot req =
  let decision = validate t snapshot req ~excluding:min_int in
  (match decision with
  | Accepted -> Hashtbl.replace t.accepted req.Capacity_request.id req
  | Rejected _ -> ());
  t.events <- Submitted (req.Capacity_request.id, decision) :: t.events;
  decision

let modify t snapshot req =
  let decision = validate t snapshot req ~excluding:req.Capacity_request.id in
  (match decision with
  | Accepted -> Hashtbl.replace t.accepted req.Capacity_request.id req
  | Rejected _ -> ());
  t.events <- Modified (req.Capacity_request.id, decision) :: t.events;
  decision

let delete t id =
  let existed = Hashtbl.mem t.accepted id in
  if existed then begin
    Hashtbl.remove t.accepted id;
    t.events <- Deleted id :: t.events
  end;
  existed

let requests t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.accepted []
  |> List.sort (fun a b -> compare a.Capacity_request.id b.Capacity_request.id)

let find t id = Hashtbl.find_opt t.accepted id

let log t = List.rev t.events
