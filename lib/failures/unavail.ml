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

let kind_name = function
  | Planned_maintenance -> "planned"
  | Unplanned_sw -> "unplanned-sw"
  | Unplanned_hw -> "unplanned-hw"
  | Correlated -> "correlated"

let scope_name = function
  | Server id -> Printf.sprintf "server:%d" id
  | Rack r -> Printf.sprintf "rack:%d" r
  | Msb m -> Printf.sprintf "msb:%d" m

let pp ppf t =
  Format.fprintf ppf "event#%d %s %s t=[%.1f, %.1f)" t.id (kind_name t.kind) (scope_name t.scope)
    t.start_h (end_h t)
