module Region = Ras_topology.Region
module Unavail = Ras_failures.Unavail
module Hw = Ras_topology.Hardware

type owner = Free | Reservation of int | Shared_buffer | Elastic of int

type event = Went_down of int * Unavail.kind | Came_up of int

type frozen = {
  current : int array;
  in_use : Bytes.t;
  down : Bytes.t;
  available_by_hw : int array;
}

(* Per-server state lives in flat columns (one int or one byte per server)
   instead of one heap record per server: at region scale (10^6 servers) the
   record representation costs ~6 words of header+fields per server plus a
   pointer array, while the columns cost ~2.25 words per server total and
   never allocate on reads of the hot fields.

   [freeze] hands the [current], [in_use] and [down] columns to a reader
   as they are and sets [shared]; the first effective write after it
   copies the three columns once, so a frozen view never changes and a
   run of freezes with no write between them costs no per-server work.

   [stale_log] holds every server whose target differs from its current
   owner's home (an [Elastic] owner is shared-buffer capacity on loan, so
   it reads as [Shared_buffer]).  Every write to a server's target or
   owner appends its id, and the log is compacted to the stale servers,
   once each, when it is read or fills up.  A write so pays one sequential
   store: the tier-1 repair's moves read no column they did not read
   before. *)
type t = {
  mutable reg : Region.t;
  mutable current : int array;  (* owner codes *)
  mutable target : int array;  (* owner codes *)
  mutable down : Bytes.t;  (* 0 = healthy, 1 + kind code otherwise *)
  mutable in_use : Bytes.t;  (* 0 / 1 *)
  mutable shared : bool;  (* [current], [in_use] and [down] are frozen views *)
  available_by_hw : int array;  (* available servers per hardware-catalog index *)
  mutable stale_log : int array;  (* a superset of the stale ids *)
  mutable stale_len : int;
  mutable stale_mark : Bytes.t;  (* compaction scratch, 0 / 1 per server id, all 0 outside it *)
  mutable subscribers : (event -> unit) list;  (* subscription order *)
  mutable change_subscribers : (int -> unit) list;  (* subscription order *)
}

(* Owner codes: injective int encoding so a column cell is a single
   immediate.  [Free] and [Shared_buffer] take the two codes outside the
   id-carrying residue classes (codes 2 mod 4 and 3 mod 4). *)
let owner_code = function
  | Free -> 0
  | Shared_buffer -> 1
  | Reservation id -> (id * 4) + 2
  | Elastic id -> (id * 4) + 3

let owner_of_code = function
  | 0 -> Free
  | 1 -> Shared_buffer
  | c when c land 3 = 2 -> Reservation ((c - 2) asr 2)
  | c -> Elastic ((c - 3) asr 2)

let[@inline] is_elastic_code c = c land 3 = 3

let kind_code = function
  | Unavail.Planned_maintenance -> 0
  | Unavail.Unplanned_sw -> 1
  | Unavail.Unplanned_hw -> 2
  | Unavail.Correlated -> 3

let free_code = 0

let hw_index_at reg id = reg.Region.servers.(id).Region.hw.Hw.index

let create reg =
  let n = Region.num_servers reg in
  let available_by_hw = Array.make Hw.count 0 in
  for id = 0 to n - 1 do
    let h = hw_index_at reg id in
    available_by_hw.(h) <- available_by_hw.(h) + 1
  done;
  {
    reg;
    current = Array.make n free_code;
    target = Array.make n free_code;
    down = Bytes.make n '\000';
    in_use = Bytes.make n '\000';
    shared = false;
    available_by_hw;
    stale_log = Array.make 64 0;
    stale_len = 0;
    stale_mark = Bytes.make n '\000';
    subscribers = [];
    change_subscribers = [];
  }

let region t = t.reg

let num_servers t = Array.length t.current

let check t id fn =
  if id < 0 || id >= Array.length t.current then
    invalid_arg (Printf.sprintf "Broker.%s: unknown server %d" fn id)

(* -- column accessors: the one read path -- *)

let current_code t id = check t id "current_code"; t.current.(id)

let target_code t id = check t id "target_code"; t.target.(id)

let current_owner t id = owner_of_code (current_code t id)

let down_code t id = check t id "down_code"; Char.code (Bytes.unsafe_get t.down id)

let in_use_at t id = check t id "in_use_at"; Bytes.unsafe_get t.in_use id <> '\000'

let planned_code = 1 + kind_code Unavail.Planned_maintenance

(* inlined: the snapshot reads call it once per server per pass *)
let[@inline] available_code c = c = 0 || c = planned_code

let available_at t id = available_code (down_code t id)

let[@inline] available_byte b = available_code (Char.code b)

let healthy_at t id = down_code t id = 0

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let subscribe_changes t f = t.change_subscribers <- t.change_subscribers @ [ f ]

let notify t ev = List.iter (fun f -> f ev) t.subscribers

let notify_change t id = List.iter (fun f -> f id) t.change_subscribers

let freeze t : frozen =
  t.shared <- true;
  {
    current = t.current;
    in_use = t.in_use;
    down = t.down;
    available_by_hw = Array.copy t.available_by_hw;
  }

(* Called by every effective write to a frozen column, before it writes. *)
let unshare t =
  if t.shared then begin
    t.current <- Array.copy t.current;
    t.in_use <- Bytes.copy t.in_use;
    t.down <- Bytes.copy t.down;
    t.shared <- false
  end

(* -- the stale set -- *)

let shared_buffer_code = owner_code Shared_buffer

let stale_at t id =
  let c = t.current.(id) in
  t.target.(id) <> if is_elastic_code c then shared_buffer_code else c

(* Keep the log's stale ids, once each, in place. *)
let compact_stale t =
  let len = ref 0 in
  for k = 0 to t.stale_len - 1 do
    let id = t.stale_log.(k) in
    if Bytes.unsafe_get t.stale_mark id = '\000' && stale_at t id then begin
      Bytes.unsafe_set t.stale_mark id '\001';
      t.stale_log.(!len) <- id;
      incr len
    end
  done;
  for k = 0 to !len - 1 do
    Bytes.unsafe_set t.stale_mark t.stale_log.(k) '\000'
  done;
  t.stale_len <- !len

(* Called after a write to [id]'s target or current owner.  A full log is
   compacted first, and doubled when that leaves it more than half full. *)
let log_write t id =
  if t.stale_len = Array.length t.stale_log then begin
    compact_stale t;
    if 2 * t.stale_len >= Array.length t.stale_log then
      t.stale_log <- Array.append t.stale_log (Array.make (Array.length t.stale_log) 0)
  end;
  t.stale_log.(t.stale_len) <- id;
  t.stale_len <- t.stale_len + 1

let stale_servers t =
  compact_stale t;
  List.init t.stale_len (fun k -> t.stale_log.(k))

let set_target t id owner =
  check t id "set_target";
  t.target.(id) <- owner_code owner;
  log_write t id

let move t id owner =
  check t id "move";
  let code = owner_code owner in
  if t.current.(id) <> code then begin
    unshare t;
    t.current.(id) <- code;
    log_write t id;
    Bytes.unsafe_set t.in_use id '\000';
    notify_change t id
  end

(* Write a down code and keep the per-subtype availability count. *)
let set_down t id ~was code =
  unshare t;
  Bytes.unsafe_set t.down id (Char.chr code);
  let delta = Bool.to_int (available_code code) - Bool.to_int (available_code was) in
  if delta <> 0 then begin
    let h = hw_index_at t.reg id in
    t.available_by_hw.(h) <- t.available_by_hw.(h) + delta
  end

let mark_down t id kind =
  let code = 1 + kind_code kind in
  let was = down_code t id in
  if was <> code then begin
    set_down t id ~was code;
    notify_change t id;
    notify t (Went_down (id, kind))
  end

let mark_up t id =
  let was = down_code t id in
  if was <> 0 then begin
    set_down t id ~was 0;
    notify_change t id;
    notify t (Came_up id)
  end

let set_in_use t id flag =
  check t id "set_in_use";
  let byte = if flag then '\001' else '\000' in
  if Bytes.unsafe_get t.in_use id <> byte then begin
    unshare t;
    Bytes.unsafe_set t.in_use id byte;
    notify_change t id
  end

let extend_region t reg =
  let old_n = num_servers t in
  let n = Region.num_servers reg in
  if n < old_n then invalid_arg "Broker.extend_region: new region is smaller";
  for i = 0 to old_n - 1 do
    if reg.Region.servers.(i).Region.id <> t.reg.Region.servers.(i).Region.id then
      invalid_arg "Broker.extend_region: existing server ids changed"
  done;
  let grow_int col =
    let bigger = Array.make n free_code in
    Array.blit col 0 bigger 0 old_n;
    bigger
  in
  let grow_bytes col =
    let bigger = Bytes.make n '\000' in
    Bytes.blit col 0 bigger 0 old_n;
    bigger
  in
  t.current <- grow_int t.current;
  t.target <- grow_int t.target;
  t.down <- grow_bytes t.down;
  t.in_use <- grow_bytes t.in_use;
  t.stale_mark <- grow_bytes t.stale_mark;
  (* the grown columns are fresh: no frozen view shares them *)
  t.shared <- false;
  t.reg <- reg;
  (* every count before the first notification: a change subscriber may
     freeze *)
  for id = old_n to n - 1 do
    let h = hw_index_at reg id in
    t.available_by_hw.(h) <- t.available_by_hw.(h) + 1
  done;
  for id = old_n to n - 1 do
    notify_change t id
  done

let servers_with_owner t owner =
  let code = owner_code owner in
  let out = ref [] in
  for id = num_servers t - 1 downto 0 do
    if t.current.(id) = code then out := id :: !out
  done;
  !out

let count_owner t owner =
  let code = owner_code owner in
  let acc = ref 0 in
  Array.iter (fun c -> if c = code then incr acc) t.current;
  !acc
