module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware

(* Server state is columnar (int/byte column per field, indexed by server
   id), and the columns are the broker's own, frozen: capture does no
   per-server work, and the broker copies them on its next write. *)
type t = {
  region : Region.t;
  current : int array;  (* Broker.owner_code per server, [Elastic] unresolved *)
  in_use : Bytes.t;
  down : Bytes.t;
  attr : int array option;
  usable_by_hw : int array;
  reservations : Reservation.t list;
}

let take ?attr_of broker reservations =
  let f = Broker.freeze broker in
  {
    region = Broker.region broker;
    current = f.Broker.current;
    in_use = f.Broker.in_use;
    down = f.Broker.down;
    attr = Option.map (Array.init (Broker.num_servers broker)) attr_of;
    usable_by_hw = f.Broker.available_by_hw;
    reservations;
  }

let num_servers t = Array.length t.current

let server t id = t.region.Region.servers.(id)

let shared_code = Broker.owner_code Broker.Shared_buffer

(* [Online_mover.lend_idle] is the only writer of [Elastic] owners, and it
   lends from the shared buffer: a lent server is read at its home.  The
   per-server reads are inlined: symmetry, concretize and the merge call
   them once per server per pass. *)
let[@inline] current_code t id =
  let c = t.current.(id) in
  if Broker.is_elastic_code c then shared_code else c

let current t id = Broker.owner_of_code (current_code t id)

let in_use_at t id = Bytes.get t.in_use id <> '\000'

let[@inline] usable_at t id = Broker.available_byte (Bytes.get t.down id)

let[@inline] attr_at t id =
  match t.attr with
  | Some attr -> attr.(id)
  | None -> if id < 0 || id >= num_servers t then invalid_arg "index out of bounds" else 0

let usable_hw_histogram t = t.usable_by_hw

(* The home owners in scope as a bitset of owner codes, 32 a word, built
   once per application: symmetry queries it once per server. *)
let covers t =
  let codes =
    Broker.owner_code Broker.Free
    :: List.map (fun r -> Broker.owner_code (Reservation.owner r)) t.reservations
  in
  let held = Array.make ((List.fold_left Int.max 0 codes lsr 5) + 1) 0 in
  List.iter (fun c -> held.(c lsr 5) <- held.(c lsr 5) lor (1 lsl (c land 31))) codes;
  fun id ->
    usable_at t id
    &&
    let c = current_code t id in
    c lsr 5 < Array.length held && held.(c lsr 5) land (1 lsl (c land 31)) <> 0

(* Buffer reservations are per hardware category, so category membership
   (rru_of > 0) identifies which buffer reservation holds a [Shared_buffer]
   server.  Code-based so the rru folds below never decode owners. *)
let owned_by_code res code hw =
  if code = Broker.owner_code Broker.Shared_buffer then
    Reservation.is_buffer res && res.Reservation.rru_of hw > 0.0
  else
    code = Broker.owner_code (Broker.Reservation res.Reservation.id)
    && not (Reservation.is_buffer res)

(* The one per-server pass of the rru folds: the per-MSB, per-DC and total
   reads add up its counts. *)
let usable_by_msb_hw t res =
  let out = Array.init t.region.Region.num_msbs (fun _ -> Array.make Hw.count 0) in
  for id = 0 to num_servers t - 1 do
    if usable_at t id then begin
      let s = server t id in
      let hw = s.Region.hw in
      if owned_by_code res (current_code t id) hw then begin
        let row = out.(s.Region.loc.Region.msb) in
        row.(hw.Hw.index) <- row.(hw.Hw.index) + 1
      end
    end
  done;
  out

let rru_of_counts res counts =
  let rru = Array.map res.Reservation.rru_of Hw.catalog in
  let rru_of row = Array.map2 (fun n v -> float_of_int n *. v) row rru in
  Array.map (fun row -> Array.fold_left ( +. ) 0.0 (rru_of row)) counts

let rru_by_msb t res = rru_of_counts res (usable_by_msb_hw t res)

let current_rru t res = Array.fold_left ( +. ) 0.0 (rru_by_msb t res)

let rru_by_dc t res =
  let out = Array.make t.region.Region.num_dcs 0.0 in
  Array.iteri
    (fun m v ->
      let d = t.region.Region.msb_dc.(m) in
      out.(d) <- out.(d) +. v)
    (rru_by_msb t res);
  out

let max_msb_share t res =
  let per_msb = rru_by_msb t res in
  let total = Array.fold_left ( +. ) 0.0 per_msb in
  if total <= 0.0 then nan
  else Array.fold_left Float.max 0.0 per_msb /. total
