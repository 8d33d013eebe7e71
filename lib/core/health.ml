module Engine = Ras_sim.Engine
module Broker = Ras_broker.Broker
module Unavail = Ras_failures.Unavail

type t = {
  broker : Broker.t;
  active_kinds : (int, Unavail.kind list ref) Hashtbl.t;  (* server -> active events *)
}

let severity = function
  | Unavail.Correlated -> 3
  | Unavail.Unplanned_hw -> 2
  | Unavail.Unplanned_sw -> 1
  | Unavail.Planned_maintenance -> 0

let most_severe kinds =
  List.fold_left
    (fun acc k ->
      match acc with Some best when severity best >= severity k -> acc | _ -> Some k)
    None kinds

let sync t server =
  let kinds = match Hashtbl.find_opt t.active_kinds server with Some l -> !l | None -> [] in
  match most_severe kinds with
  | Some kind -> Broker.mark_down t.broker server kind
  | None -> Broker.mark_up t.broker server

let start_event t event =
  let servers = Unavail.servers_of (Broker.region t.broker) event in
  List.iter
    (fun server ->
      let kinds =
        match Hashtbl.find_opt t.active_kinds server with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace t.active_kinds server l;
          l
      in
      kinds := event.Unavail.kind :: !kinds;
      sync t server)
    servers

let end_event t event =
  let servers = Unavail.servers_of (Broker.region t.broker) event in
  List.iter
    (fun server ->
      (match Hashtbl.find_opt t.active_kinds server with
      | Some kinds ->
        (* remove one occurrence of this event's kind *)
        let removed = ref false in
        kinds :=
          List.filter
            (fun k ->
              if (not !removed) && k = event.Unavail.kind then begin
                removed := true;
                false
              end
              else true)
            !kinds
      | None -> ());
      sync t server)
    servers

let install engine broker events =
  let t = { broker; active_kinds = Hashtbl.create 1024 } in
  List.iter
    (fun e ->
      let valid =
        match e.Unavail.scope with
        | Unavail.Server id -> id >= 0 && id < Broker.num_servers broker
        | Unavail.Rack _ | Unavail.Msb _ -> true
      in
      if valid then begin
        Engine.schedule engine ~at:e.Unavail.start_h (fun _ -> start_event t e);
        Engine.schedule engine ~at:(Unavail.end_h e) (fun _ -> end_event t e)
      end)
    events;
  t
