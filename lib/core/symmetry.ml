module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware
module Broker = Ras_broker.Broker

type cls = {
  index : int;
  msb : int;
  rack : int option;
  hw : int;
  in_use : bool;
  attr : int;
  members : int array;
}

type t = {
  classes : cls array;
  region : Region.t;
  snapshot : Snapshot.t;
  owner_counts : (int, int) Hashtbl.t array;
  covers : int -> bool;
}

type key = { kmsb : int; krack : int; khw : int; kuse : bool; kattr : int }

let cls_of_key index key members =
  {
    index;
    msb = key.kmsb;
    rack = (if key.krack >= 0 then Some key.krack else None);
    hw = key.khw;
    in_use = key.kuse;
    attr = key.kattr;
    members;
  }

(* Per-class histogram of current-owner codes over the members, so
   [current_count] is a table lookup instead of a scan of the member list
   (which at region scale is hit once per (class, reservation) pair during
   formulation). *)
let count_owners snapshot classes =
  Array.map
    (fun c ->
      let h = Hashtbl.create 8 in
      Array.iter
        (fun id ->
          let code = Snapshot.current_code snapshot id in
          match Hashtbl.find_opt h code with
          | Some n -> Hashtbl.replace h code (n + 1)
          | None -> Hashtbl.add h code 1)
        c.members;
      h)
    classes

let finish snapshot classes covers =
  {
    classes;
    region = snapshot.Snapshot.region;
    snapshot;
    owner_counts = count_owners snapshot classes;
    covers;
  }

(* Streaming build: one pass over server ids reading the snapshot columns,
   grouping into classes via a key table.  Member arrays are filled in a
   second pass over a per-server group-index scratch column, so ids come out
   ascending for free and the filter runs exactly once per usable server. *)
let build ?(rack_level = false) ?(include_server = fun _ -> true) (snapshot : Snapshot.t) =
  let n = Snapshot.num_servers snapshot in
  let covers id = Snapshot.usable_at snapshot id && include_server id in
  let group_of_key : (key, int) Hashtbl.t = Hashtbl.create 256 in
  let keys : key list ref = ref [] in
  let num_groups = ref 0 in
  (* group index per server, -1 = excluded *)
  let group = Array.make n (-1) in
  for id = 0 to n - 1 do
    if covers id then begin
      let s = Snapshot.server snapshot id in
      let loc = s.Region.loc in
      let key =
        {
          kmsb = loc.Region.msb;
          krack = (if rack_level then loc.Region.rack else -1);
          khw = s.Region.hw.Hw.index;
          kuse = Snapshot.in_use_at snapshot id;
          kattr = Snapshot.attr_at snapshot id;
        }
      in
      match Hashtbl.find_opt group_of_key key with
      | Some g -> group.(id) <- g
      | None ->
        let g = !num_groups in
        incr num_groups;
        Hashtbl.add group_of_key key g;
        keys := key :: !keys;
        group.(id) <- g
    end
  done;
  (* class order is the sorted key order, as in the pre-streaming build the
     tests keep as an oracle: the dense indices (and the name list order)
     must not depend on which server id happened to introduce each class *)
  let sorted_keys = List.sort compare !keys in
  let class_of_group = Array.make !num_groups (-1) in
  List.iteri
    (fun index key -> class_of_group.(Hashtbl.find group_of_key key) <- index)
    sorted_keys;
  let counts = Array.make !num_groups 0 in
  Array.iter (fun g -> if g >= 0 then counts.(class_of_group.(g)) <- counts.(class_of_group.(g)) + 1) group;
  let members = Array.init !num_groups (fun c -> Array.make counts.(c) 0) in
  let fill = Array.make !num_groups 0 in
  for id = 0 to n - 1 do
    let g = group.(id) in
    if g >= 0 then begin
      let c = class_of_group.(g) in
      members.(c).(fill.(c)) <- id;
      fill.(c) <- fill.(c) + 1
    end
  done;
  let classes =
    Array.of_list
      (List.mapi (fun index key -> cls_of_key index key members.(index)) sorted_keys)
  in
  finish snapshot classes covers

(* Stable identity of a class: every field of the grouping key, none of the
   dense index.  Used to name model variables and rows, so that the same
   logical class keeps the same name across snapshots even when classes
   appear or disappear and the dense indices shift. *)
let class_name c =
  let rack = match c.rack with Some r -> Printf.sprintf "k%d" r | None -> "" in
  Printf.sprintf "m%d%sh%du%da%d" c.msb rack c.hw (if c.in_use then 1 else 0) c.attr

let size c = Array.length c.members

let hw_of c = Hw.catalog.(c.hw)

let current_count t c owner =
  match Hashtbl.find_opt t.owner_counts.(c.index) (Broker.owner_code owner) with
  | Some n -> n
  | None -> 0

let num_classes t = Array.length t.classes

let acceptable_count reservations hw =
  List.fold_left
    (fun acc r -> if Reservation.accepts r Hw.catalog.(hw) then acc + 1 else acc)
    0 reservations

let raw_variable_count t ~reservations =
  Array.fold_left
    (fun acc c -> acc + (size c * acceptable_count reservations c.hw))
    0 t.classes

let grouped_variable_count t ~reservations =
  Array.fold_left (fun acc c -> acc + acceptable_count reservations c.hw) 0 t.classes
