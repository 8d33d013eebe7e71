module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware
module Engine = Ras_sim.Engine
module Unavail = Ras_failures.Unavail

type apply_stats = { moved_in_use : int; moved_unused : int; skipped_unavailable : int }

type t = {
  broker : Broker.t;
  engine : Engine.t option;
  reactive : Reactive.t;
  mutable reservations : Reservation.t list;
  mutable preempt : int -> unit;
  mutable replacements_done : int;
  mutable replacements_failed : int;
}

let set_reservations t reservations = t.reservations <- reservations

let on_preempt t f = t.preempt <- f

(* every [Elastic] server is a loan from the shared buffer: [lend_idle] is
   the only writer of [Elastic] owners *)
let home_of t id =
  if Broker.is_elastic_code (Broker.current_code t.broker id) then Some Broker.Shared_buffer
  else None

let reactive t = t.reactive

let reservation_of t id =
  List.find_opt (fun r -> r.Reservation.id = id && not (Reservation.is_buffer r)) t.reservations

(* Move one server, preempting its containers when in use.  A lent server
   that moves leaves the index's lent pools, which ends its loan. *)
let do_move t id owner =
  if Broker.current_code t.broker id <> Broker.owner_code owner then begin
    if Broker.in_use_at t.broker id then t.preempt id;
    Broker.move t.broker id owner
  end

let find_replacement t res ~failed_hw = Reactive.find_replacement t.reactive res ~failed_hw

let replace_failed t id =
  let r = Broker.record t.broker id in
  match r.Broker.current with
  | Broker.Reservation rid -> (
    match reservation_of t rid with
    | None -> ()
    | Some res -> (
      let failed_hw = r.Broker.server.Region.hw.Ras_topology.Hardware.index in
      match find_replacement t res ~failed_hw with
      | Some replacement ->
        do_move t replacement (Broker.Reservation rid);
        Broker.set_target t.broker replacement (Broker.Reservation rid);
        (* swap semantics: the dead server leaves the reservation for the
           shared buffer, so the reservation's capacity accounting sees one
           replacement — not the replacement plus a dead member that would
           double-count the moment the server heals *)
        do_move t id Broker.Shared_buffer;
        Broker.set_target t.broker id Broker.Shared_buffer;
        t.replacements_done <- t.replacements_done + 1
      | None -> t.replacements_failed <- t.replacements_failed + 1))
  | Broker.Free | Broker.Shared_buffer | Broker.Elastic _ -> ()

let create ?engine broker =
  let t =
    {
      broker;
      engine;
      reactive = Reactive.create broker;
      reservations = [];
      preempt = (fun _ -> ());
      replacements_done = 0;
      replacements_failed = 0;
    }
  in
  let on_event = function
    (* random failures only: planned maintenance and correlated failures are
       absorbed by capacity already inside the reservations (§3.3.1) *)
    | Broker.Went_down (id, (Unavail.Unplanned_sw | Unavail.Unplanned_hw as kind)) -> (
      ignore kind;
      (* replacement within one minute (§3.3.1) *)
      match t.engine with
      | Some engine ->
        Engine.schedule engine
          ~at:(Engine.now engine +. (1.0 /. 60.0))
          (fun _ ->
            let r = Broker.record t.broker id in
            if not (Broker.healthy r) then replace_failed t id)
      | None -> replace_failed t id)
    | Broker.Went_down _ | Broker.Came_up _ -> ()
  in
  Broker.subscribe broker on_event;
  t

let apply_plan t (plan : Concretize.plan) =
  List.iter (fun (id, owner) -> Broker.set_target t.broker id owner) plan.Concretize.targets;
  let stats = ref { moved_in_use = 0; moved_unused = 0; skipped_unavailable = 0 } in
  List.iter
    (fun (m : Concretize.move) ->
      let r = Broker.record t.broker m.Concretize.server in
      if not (Broker.available r) then
        stats := { !stats with skipped_unavailable = !stats.skipped_unavailable + 1 }
      else begin
        let in_use = r.Broker.in_use in
        do_move t m.Concretize.server m.Concretize.to_;
        if in_use then stats := { !stats with moved_in_use = !stats.moved_in_use + 1 }
        else stats := { !stats with moved_unused = !stats.moved_unused + 1 }
      end)
    plan.Concretize.moves;
  !stats

let lend_idle t ~elastic_id ~max_servers =
  if max_servers <= 0 then 0
  else begin
    (* drain the cheapest buffer buckets, O(classes + servers lent) *)
    let ids = Reactive.take_idle_buffer t.reactive ~max_servers in
    List.iter (fun id -> Broker.move t.broker id (Broker.Elastic elastic_id)) ids;
    List.length ids
  end

let revoke t ~elastic_id =
  let code = Broker.owner_code (Broker.Elastic elastic_id) in
  let to_revoke =
    List.filter (fun id -> Broker.current_code t.broker id = code) (Reactive.lent_servers t.reactive)
    |> List.sort compare
  in
  List.iter (fun id -> do_move t id Broker.Shared_buffer) to_revoke;
  List.length to_revoke

let loans_outstanding t = Reactive.loans_outstanding t.reactive

let replacements_done t = t.replacements_done

let replacements_failed t = t.replacements_failed
