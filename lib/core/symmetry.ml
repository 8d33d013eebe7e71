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

type owner_counts = { first : int array; codes : int array; counts : int array }

type t = {
  classes : cls array;
  region : Region.t;
  snapshot : Snapshot.t;
  owner_counts : owner_counts;
}

(* Int pairs numbered densely in order of first sight, each with a count:
   an open-addressing table, linear probing, at most half full, so its
   size follows the distinct pairs seen.  [build] keeps two: the groups,
   keyed by (key, attr) where [key] packs the scope (the MSB, or MSB and
   rack at rack level), the subtype and the in-use bit into one int whose
   order is theirs, so the table is O(classes), never O(scopes x
   subtypes); and the owner runs, keyed by (class, owner code). *)
type counted = {
  mutable slot : int array;  (* -> pair number, -1 when empty *)
  mutable fst : int array;  (* per pair number *)
  mutable snd : int array;
  mutable count : int array;
  mutable size : int;  (* pairs seen *)
  mutable last : int;  (* the pair last bumped, -1 before the first *)
}

(* room for [pairs] pairs before the first growth, a power of two *)
let counted pairs =
  let n = ref 64 in
  while !n < pairs do
    n := 2 * !n
  done;
  let n = !n in
  {
    slot = Array.make (2 * n) (-1);
    fst = Array.make n 0;
    snd = Array.make n 0;
    count = Array.make n 0;
    size = 0;
    last = -1;
  }

let[@inline] slot_of t a b =
  let mask = Array.length t.slot - 1 in
  let h = ((a * 0x9E3779B1) lxor (b * 0x85EBCA77)) land max_int in
  let s = ref ((h lxor (h lsr 17)) land mask) in
  while
    let j = t.slot.(!s) in
    j >= 0 && (t.fst.(j) <> a || t.snd.(j) <> b)
  do
    s := (!s + 1) land mask
  done;
  !s

let grow t =
  let n = 2 * t.size in
  let extend a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.fst <- extend t.fst;
  t.snd <- extend t.snd;
  t.count <- extend t.count;
  t.slot <- Array.make (2 * n) (-1);
  for j = 0 to t.size - 1 do
    t.slot.(slot_of t t.fst.(j) t.snd.(j)) <- j
  done

(* the number of pair (a, b), counted once more.  Neighbouring servers
   mostly repeat a pair (a rack shares its MSB and subtype, an owner holds
   runs of ids), so the last pair is checked before the table. *)
let[@inline] bump t a b =
  let last = t.last in
  if last >= 0 && t.fst.(last) = a && t.snd.(last) = b then begin
    t.count.(last) <- t.count.(last) + 1;
    last
  end
  else begin
    let s = slot_of t a b in
    let j = t.slot.(s) in
    let j =
      if j >= 0 then begin
        t.count.(j) <- t.count.(j) + 1;
        j
      end
      else begin
        let j = t.size in
        t.slot.(s) <- j;
        t.fst.(j) <- a;
        t.snd.(j) <- b;
        t.count.(j) <- 1;
        t.size <- j + 1;
        if t.size = Array.length t.fst then grow t;
        j
      end
    in
    t.last <- j;
    j
  end

(* pair numbers in ascending (fst, snd) order *)
let sorted_pairs t =
  let order = Array.init t.size Fun.id in
  Array.sort
    (fun x y ->
      let c = Int.compare t.fst.(x) t.fst.(y) in
      if c <> 0 then c else Int.compare t.snd.(x) t.snd.(y))
    order;
  order

(* Streaming build: one pass over server ids reading the snapshot columns
   numbers each covered server's group (the scope is asked once per
   server).  A second pass over that per-server group column fills the
   member arrays, ids ascending for free, and counts each member's (class,
   owner code) pair. *)
let build ?(rack_level = false) (snapshot : Snapshot.t) =
  let n = Snapshot.num_servers snapshot in
  let region = snapshot.Snapshot.region in
  let servers = region.Region.servers in
  let num_racks = region.Region.num_racks in
  let covers = Snapshot.covers snapshot in
  let groups = counted 64 in
  (* group number per server, -1 = excluded *)
  let group = Array.make n (-1) in
  for id = 0 to n - 1 do
    if covers id then begin
      let s = servers.(id) in
      let loc = s.Region.loc in
      let scope =
        if rack_level then (loc.Region.msb * num_racks) + loc.Region.rack else loc.Region.msb
      in
      let key =
        (((scope * Hw.count) + s.Region.hw.Hw.index) * 2)
        + if Snapshot.in_use_at snapshot id then 1 else 0
      in
      group.(id) <- bump groups key (Snapshot.attr_at snapshot id)
    end
  done;
  (* class order is the (key, attr) order, i.e. the order of (msb, rack,
     hw, in_use, attr): the dense indices (and the name list order) must
     not depend on which server id happened to introduce each class *)
  let order = sorted_pairs groups in
  let class_of_group = Array.make groups.size (-1) in
  Array.iteri (fun c j -> class_of_group.(j) <- c) order;
  let members = Array.map (fun j -> Array.make groups.count.(j) 0) order in
  let fill = Array.make groups.size 0 in
  (* every class has at least one owner run *)
  let owners = counted groups.size in
  for id = 0 to n - 1 do
    let j = group.(id) in
    if j >= 0 then begin
      let c = class_of_group.(j) in
      members.(c).(fill.(c)) <- id;
      fill.(c) <- fill.(c) + 1;
      ignore (bump owners c (Snapshot.current_code snapshot id))
    end
  done;
  let classes =
    Array.mapi
      (fun index j ->
        let key = groups.fst.(j) in
        let scope = key / (2 * Hw.count) in
        {
          index;
          msb = (if rack_level then scope / num_racks else scope);
          rack = (if rack_level then Some (scope mod num_racks) else None);
          hw = key / 2 mod Hw.count;
          in_use = key land 1 = 1;
          attr = groups.snd.(j);
          members = members.(index);
        })
      order
  in
  (* the owner runs, class by class, codes ascending *)
  let runs = sorted_pairs owners in
  let first = Array.make (Array.length classes + 1) 0 in
  Array.iter (fun r -> first.(owners.fst.(r) + 1) <- first.(owners.fst.(r) + 1) + 1) runs;
  for c = 1 to Array.length classes do
    first.(c) <- first.(c) + first.(c - 1)
  done;
  let owner_counts =
    {
      first;
      codes = Array.map (fun r -> owners.snd.(r)) runs;
      counts = Array.map (fun r -> owners.count.(r)) runs;
    }
  in
  { classes; region; snapshot; owner_counts }

(* Stable identity of a class: every field of the grouping key, none of the
   dense index.  Used to name model variables and rows, so that the same
   logical class keeps the same name across snapshots even when classes
   appear or disappear and the dense indices shift. *)
let class_name c =
  let rack = match c.rack with Some r -> "k" ^ string_of_int r | None -> "" in
  String.concat ""
    [
      "m"; string_of_int c.msb; rack; "h"; string_of_int c.hw; (if c.in_use then "u1" else "u0");
      "a"; string_of_int c.attr;
    ]

let size c = Array.length c.members

let current_count t c owner =
  let { first; codes; counts } = t.owner_counts in
  let code = Broker.owner_code owner in
  (* binary search of the class's ascending run *)
  let lo = ref first.(c.index) and hi = ref first.(c.index + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if codes.(mid) < code then lo := mid + 1 else hi := mid
  done;
  if !lo < first.(c.index + 1) && codes.(!lo) = code then counts.(!lo) else 0

let num_classes t = Array.length t.classes

let acceptable_count t hw =
  List.fold_left
    (fun acc r -> if Reservation.accepts r Hw.catalog.(hw) then acc + 1 else acc)
    0 t.snapshot.Snapshot.reservations

let raw_variable_count t =
  Array.fold_left (fun acc c -> acc + (size c * acceptable_count t c.hw)) 0 t.classes

let grouped_variable_count t =
  Array.fold_left (fun acc c -> acc + acceptable_count t c.hw) 0 t.classes
