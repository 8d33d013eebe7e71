module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request

let fulfill broker requests =
  let n = Broker.num_servers broker in
  let servers = (Broker.region broker).Region.servers in
  let free = Broker.owner_code Broker.Free in
  let fulfill_one req =
    let service = req.Capacity_request.service in
    let needed = ref req.Capacity_request.rru in
    let sid = ref 0 in
    (* first-acceptable-in-pool-order: the greedy policy under test *)
    while !needed > 1e-9 && !sid < n do
      if Broker.current_code broker !sid = free && Broker.available_at broker !sid then begin
        let v = Service.rru_of service servers.(!sid).Region.hw in
        if v > 0.0 then begin
          Broker.move broker !sid (Broker.Reservation req.Capacity_request.id);
          Broker.set_target broker !sid (Broker.Reservation req.Capacity_request.id);
          needed := !needed -. v
        end
      end;
      incr sid
    done;
    (req.Capacity_request.id, Float.max 0.0 !needed)
  in
  List.map fulfill_one requests
