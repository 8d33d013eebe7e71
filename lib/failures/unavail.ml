module Region = Ras_topology.Region

type scope = Server of int | Rack of int | Msb of int

type kind = Planned_maintenance | Unplanned_sw | Unplanned_hw | Correlated

type t = { id : int; scope : scope; kind : kind; start_h : float; duration_h : float }


let end_h t = t.start_h +. t.duration_h

let active_at t time = time >= t.start_h && time < end_h t

let servers_of region t =
  match t.scope with
  | Server id -> if id >= 0 && id < Region.num_servers region then [ id ] else []
  | Rack r ->
    Array.fold_right
      (fun s acc -> if s.Region.loc.Region.rack = r then s.Region.id :: acc else acc)
      region.Region.servers []
  | Msb m ->
    Array.fold_right
      (fun s acc -> if s.Region.loc.Region.msb = m then s.Region.id :: acc else acc)
      region.Region.servers []
