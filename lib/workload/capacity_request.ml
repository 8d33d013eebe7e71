type t = {
  id : int;
  service : Service.t;
  rru : float;
  msb_spread_limit : float;
  rack_spread_limit : float option;
  dc_affinity : (int * float) list;
  affinity_tolerance : float;
  embedded_buffer : bool;
  hard_msb_cap : float option;
  io_intensity : float;
  arrival_time : float;
}

let make ~id ~service ~rru ?(msb_spread_limit = 0.1) ?rack_spread_limit ?(dc_affinity = [])
    ?(affinity_tolerance = 0.1) ?(embedded_buffer = true) ?hard_msb_cap
    ?(io_intensity = 0.0) ?(arrival_time = 0.0) () =
  if not (Float.is_finite rru && rru > 0.0) then
    invalid_arg "Capacity_request.make: rru must be finite and positive";
  (match hard_msb_cap with
  | Some c when c <= 0.0 || c > 1.0 ->
    invalid_arg "Capacity_request.make: hard_msb_cap outside (0, 1]"
  | Some _ | None -> ());
  {
    id;
    service;
    rru;
    msb_spread_limit;
    rack_spread_limit;
    dc_affinity;
    affinity_tolerance;
    embedded_buffer;
    hard_msb_cap;
    io_intensity;
    arrival_time;
  }

let quorum_cap ~replicas ~quorum =
  if quorum <= 0 || quorum > replicas then
    invalid_arg "Capacity_request.quorum_cap: need 0 < quorum <= replicas";
  float_of_int (replicas - quorum) /. float_of_int replicas

let acceptable_hw_types t =
  Array.fold_left
    (fun acc hw -> if Service.acceptable t.service hw then acc + 1 else acc)
    0 Ras_topology.Hardware.catalog

let pp ppf t =
  Format.fprintf ppf "req#%d %s rru=%.1f spread<=%.2f buffer=%b" t.id t.service.Service.name
    t.rru t.msb_spread_limit t.embedded_buffer
