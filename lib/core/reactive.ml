module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware

type counters = {
  events : int;
  visited_classes : int;
  visited_servers : int;
  index_updates : int;
}

type grant = {
  requested_rru : float;
  granted_rru : float;
  servers : int list;
  took_from_buffer : int;
  visited : int;
}

(* growable int vector with O(1) push and swap-remove: one pool per
   (msb, hw) bucket *)
type vec = { mutable data : int array; mutable len : int }

let vec_make () = { data = Array.make 8 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let code_free = Broker.owner_code Broker.Free
let code_buffer = Broker.owner_code Broker.Shared_buffer

(* membership byte per server: the pool that holds it.  Only [lend_idle]
   writes [Elastic] owners and it lends from the shared buffer, so every
   [Elastic] server is a loan whose home is the buffer. *)
let m_none = 0
let m_free = 1  (* healthy idle Free *)
let m_buffer = 2  (* healthy idle Shared_buffer *)
let m_lent_idle = 3  (* healthy idle Elastic *)
let m_lent_busy = 4  (* healthy Elastic running opportunistic containers *)
let m_lent_down = 5  (* unhealthy Elastic *)
let num_pools = 6

let is_lent m = m >= m_lent_idle

type t = {
  tbroker : Broker.t;
  mutable num_msbs : int;
  mutable pools : vec array array;  (* membership -> bucket -> servers *)
  mutable membership : Bytes.t;  (* server id -> m_* *)
  mutable slot : int array;  (* server id -> its index inside its pool *)
  mutable bucket : int array;  (* server id -> msb * Hw.count + hw (static) *)
  mutable lent : int;  (* servers in the three lent pools *)
  mutable prices : float array;  (* bucket -> max |supply dual|; [||] before any solve *)
  mutable c_events : int;
  mutable c_visited_classes : int;
  mutable c_visited_servers : int;
  mutable c_index_updates : int;
}

(* ---- dual prices: the tier-1 repair policy's view of the last solve ----

   Supply-row duals aggregate per (msb, hw) bucket — the scope the pools
   are bucketed by — taking the max |dual| over the in_use / attr / rack
   variants of the classes, so a class whose servers the solver fully
   values keeps its whole bucket expensive. *)

let set_prices t ~supply_rows ~duals =
  if Array.length duals > 0 then begin
    let bucket (c : Symmetry.cls) = (c.Symmetry.msb * Hw.count) + c.Symmetry.hw in
    let size = List.fold_left (fun n (_, c) -> Int.max n (bucket c + 1)) 0 supply_rows in
    let prices = Array.make size 0.0 in
    List.iter
      (fun (row, c) ->
        if row < Array.length duals then begin
          let d = Float.abs duals.(row) and b = bucket c in
          if d > 1e-12 && d > prices.(b) then prices.(b) <- d
        end)
      supply_rows;
    t.prices <- prices
  end

let bucket_price t b = if b < Array.length t.prices then t.prices.(b) else 0.0

let price t ~msb ~hw = bucket_price t ((msb * Hw.count) + hw)

let num_buckets t = t.num_msbs * Hw.count

let desired_pool t id =
  let c = Broker.current_code t.tbroker id in
  let healthy = Broker.healthy_at t.tbroker id in
  if Broker.is_elastic_code c then begin
    if not healthy then m_lent_down
    else if Broker.in_use_at t.tbroker id then m_lent_busy
    else m_lent_idle
  end
  else if (not healthy) || Broker.in_use_at t.tbroker id then m_none
  else if c = code_free then m_free
  else if c = code_buffer then m_buffer
  else m_none

let detach t id =
  let m = Bytes.get_uint8 t.membership id in
  if m <> m_none then begin
    let v = t.pools.(m).(t.bucket.(id)) in
    let i = t.slot.(id) in
    let last = v.len - 1 in
    let moved = v.data.(last) in
    v.data.(i) <- moved;
    t.slot.(moved) <- i;
    v.len <- last;
    if is_lent m then t.lent <- t.lent - 1;
    Bytes.set_uint8 t.membership id m_none
  end

let attach t id m =
  let v = t.pools.(m).(t.bucket.(id)) in
  vec_push v id;
  t.slot.(id) <- v.len - 1;
  if is_lent m then t.lent <- t.lent + 1;
  Bytes.set_uint8 t.membership id m

let rebuild t =
  let region = Broker.region t.tbroker in
  let n = Broker.num_servers t.tbroker in
  t.num_msbs <- region.Region.num_msbs;
  let nbuckets = t.num_msbs * Hw.count in
  t.pools <-
    Array.init num_pools (fun m ->
        if m = m_none then [||] else Array.init nbuckets (fun _ -> vec_make ()));
  t.lent <- 0;
  t.membership <- Bytes.make n '\000';
  t.slot <- Array.make n 0;
  t.bucket <-
    Array.init n (fun id ->
        let s = region.Region.servers.(id) in
        (s.Region.loc.Region.msb * Hw.count) + s.Region.hw.Hw.index);
  for id = 0 to n - 1 do
    let m = desired_pool t id in
    if m <> m_none then attach t id m
  done

let on_change t id =
  t.c_index_updates <- t.c_index_updates + 1;
  if id >= Array.length t.bucket then rebuild t (* region grew: re-index once *)
  else begin
    let m = Bytes.get_uint8 t.membership id in
    let m' = desired_pool t id in
    if m <> m' then begin
      detach t id;
      if m' <> m_none then attach t id m'
    end
  end

let create broker =
  let t =
    {
      tbroker = broker;
      num_msbs = 0;
      pools = [||];
      membership = Bytes.empty;
      slot = [||];
      bucket = [||];
      lent = 0;
      prices = [||];
      c_events = 0;
      c_visited_classes = 0;
      c_visited_servers = 0;
      c_index_updates = 0;
    }
  in
  rebuild t;
  Broker.subscribe_changes broker (fun id -> on_change t id);
  t

let pool_of_source = function
  | `Free -> m_free
  | `Buffer -> m_buffer
  | `Lent_idle -> m_lent_idle
  | `Lent_in_use -> m_lent_busy
  | `Lent_down -> m_lent_down

let available_in_bucket t ~source ~msb ~hw =
  let pools = t.pools.(pool_of_source source) in
  let b = (msb * Hw.count) + hw in
  if b < 0 || b >= Array.length pools then 0 else pools.(b).len

(* Preference classes of a replacement, best first: the failed server's
   own subtype before any other, and within a subtype a buffer server
   before a loan, an idle loan before one running opportunistic containers
   (a loan may be reclaimed in use: the elastic contract, §3.4). *)
let replacement_classes =
  [
    (true, m_buffer);
    (true, m_lent_idle);
    (true, m_lent_busy);
    (false, m_buffer);
    (false, m_lent_idle);
    (false, m_lent_busy);
  ]

let find_replacement t res ~failed_hw =
  t.c_events <- t.c_events + 1;
  (* the cheapest non-empty bucket of one class, ties to the lowest bucket *)
  let cheapest ~same m =
    let pools = t.pools.(m) in
    let best = ref (-1) and best_price = ref infinity in
    for hw = 0 to Hw.count - 1 do
      if (hw = failed_hw) = same && res.Reservation.rru_of Hw.catalog.(hw) > 0.0 then
        for msb = 0 to t.num_msbs - 1 do
          let b = (msb * Hw.count) + hw in
          t.c_visited_classes <- t.c_visited_classes + 1;
          if pools.(b).len > 0 then begin
            let p = bucket_price t b in
            if !best < 0 || p < !best_price || (p = !best_price && b < !best) then begin
              best := b;
              best_price := p
            end
          end
        done
    done;
    if !best < 0 then None else Some pools.(!best)
  in
  let rec search = function
    | [] -> None
    | (same, m) :: rest -> (
      match cheapest ~same m with
      | Some v ->
        t.c_visited_servers <- t.c_visited_servers + 1;
        Some v.data.(v.len - 1)
      | None -> search rest)
  in
  search replacement_classes

let take_idle_buffer t ~max_servers =
  t.c_events <- t.c_events + 1;
  let cands = ref [] in
  let buf_pools = t.pools.(m_buffer) in
  for b = Array.length buf_pools - 1 downto 0 do
    t.c_visited_classes <- t.c_visited_classes + 1;
    if buf_pools.(b).len > 0 then cands := (bucket_price t b, b) :: !cands
  done;
  let out = ref [] and taken = ref 0 in
  List.iter
    (fun (_, b) ->
      let pool = buf_pools.(b) in
      let i = ref (pool.len - 1) in
      while !taken < max_servers && !i >= 0 do
        out := pool.data.(!i) :: !out;
        incr taken;
        decr i
      done)
    (List.sort compare !cands);
  t.c_visited_servers <- t.c_visited_servers + !taken;
  List.rev !out

let grant t ~reservation ~rru ~allow_buffer =
  t.c_events <- t.c_events + 1;
  let owner = Broker.Reservation reservation.Reservation.id in
  let granted = ref 0.0 and servers = ref [] and from_buffer = ref 0 and visited = ref 0 in
  let take_from pools ~buffer =
    let cands = ref [] in
    for hw = Hw.count - 1 downto 0 do
      let v = reservation.Reservation.rru_of Hw.catalog.(hw) in
      if v > 0.0 then
        for msb = t.num_msbs - 1 downto 0 do
          let b = (msb * Hw.count) + hw in
          t.c_visited_classes <- t.c_visited_classes + 1;
          if pools.(b).len > 0 then cands := (bucket_price t b, b, v) :: !cands
        done
    done;
    List.iter
      (fun (_, b, v) ->
        let pool = pools.(b) in
        (* each move fires the change feed, which swap-removes the taken
           server from [pool] — the loop terminates on the shrinking len *)
        while !granted < rru && pool.len > 0 do
          let id = pool.data.(pool.len - 1) in
          incr visited;
          Broker.move t.tbroker id owner;
          Broker.set_target t.tbroker id owner;
          granted := !granted +. v;
          servers := id :: !servers;
          if buffer then incr from_buffer
        done)
      (List.sort compare !cands)
  in
  take_from t.pools.(m_free) ~buffer:false;
  if !granted < rru && allow_buffer then take_from t.pools.(m_buffer) ~buffer:true;
  t.c_visited_servers <- t.c_visited_servers + !visited;
  {
    requested_rru = rru;
    granted_rru = !granted;
    servers = List.rev !servers;
    took_from_buffer = !from_buffer;
    visited = !visited;
  }

let loans_outstanding t = t.lent

let lent_servers t =
  let out = ref [] in
  List.iter
    (fun m ->
      Array.iter
        (fun v ->
          for i = 0 to v.len - 1 do
            out := v.data.(i) :: !out
          done)
        t.pools.(m))
    [ m_lent_idle; m_lent_busy; m_lent_down ];
  !out

let counters t =
  {
    events = t.c_events;
    visited_classes = t.c_visited_classes;
    visited_servers = t.c_visited_servers;
    index_updates = t.c_index_updates;
  }

let reset_counters t =
  t.c_events <- 0;
  t.c_visited_classes <- 0;
  t.c_visited_servers <- 0;
  t.c_index_updates <- 0
