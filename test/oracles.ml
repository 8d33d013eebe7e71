(* Full-scan oracles for the tier-1 decisions Ras.Reactive makes from its
   index.  Each walks every server and materializes a record per server,
   O(region) per event: the original implementations, kept here so the
   differential tests in test_reactive.ml and test_core.ml can compare the
   index against them. *)

open Ras
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region

(* The original replacement search: one full record-building broker scan
   per failure event.  Every [Elastic] server is a loan whose home is the
   shared buffer, so lent servers are read straight from the owner codes.
   Scores rank same subtype first, then buffer before loan, idle before in
   use, then lowest id. *)
let find_replacement_reference broker res ~failed_hw =
  let candidate_score (r : Broker.record) ~lent =
    (* a lent server may be reclaimed even while running opportunistic
       containers — that is the elastic contract (§3.4) *)
    if (not (Broker.healthy r)) || (r.Broker.in_use && not lent) then None
    else begin
      let hw = r.Broker.server.Region.hw in
      if res.Reservation.rru_of hw <= 0.0 then None
      else begin
        let same_subtype = hw.Ras_topology.Hardware.index = failed_hw in
        Some
          ( (if same_subtype then 0 else 1),
            (if lent then 1 else 0),
            (if r.Broker.in_use then 1 else 0),
            r.Broker.server.Region.id )
      end
    end
  in
  let best = ref None in
  Broker.iter broker ~f:(fun r ->
      let id = r.Broker.server.Region.id in
      let scored =
        match r.Broker.current with
        | Broker.Shared_buffer -> candidate_score r ~lent:false
        | Broker.Elastic _ -> candidate_score r ~lent:true
        | Broker.Free | Broker.Reservation _ -> None
      in
      match scored with
      | Some score -> (
        match !best with
        | Some (s, _) when s <= score -> ()
        | _ -> best := Some (score, id))
      | None -> ());
  Option.map snd !best

(* The original full-scan emergency grant: it iterates every server per
   source even after the request is covered, materializing a record each
   time. *)
let grant_reference broker ~reservation ~rru ~allow_buffer : Reactive.grant =
  let owner = Broker.Reservation reservation.Reservation.id in
  let granted = ref 0.0 and servers = ref [] and from_buffer = ref 0 and visited = ref 0 in
  let try_take ~source =
    Broker.iter broker ~f:(fun r ->
        incr visited;
        if !granted < rru && r.Broker.current = source && Broker.healthy r && not r.Broker.in_use
        then begin
          let v = reservation.Reservation.rru_of r.Broker.server.Region.hw in
          if v > 0.0 then begin
            let id = r.Broker.server.Region.id in
            Broker.move broker id owner;
            Broker.set_target broker id owner;
            granted := !granted +. v;
            servers := id :: !servers;
            if source = Broker.Shared_buffer then incr from_buffer
          end
        end)
  in
  try_take ~source:Broker.Free;
  if !granted < rru && allow_buffer then try_take ~source:Broker.Shared_buffer;
  {
    requested_rru = rru;
    granted_rru = !granted;
    servers = List.rev !servers;
    took_from_buffer = !from_buffer;
    visited = !visited;
  }
