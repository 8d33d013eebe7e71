module Region = Ras_topology.Region
module Hw = Ras_topology.Hardware

type t = float array

let has_flash (s : Region.server) = s.Region.hw.Hw.flash_tb > 0.0

let generate rng (region : Region.t) =
  let num_msbs = Stdlib.max 1 region.Region.num_msbs in
  Array.map
    (fun (s : Region.server) ->
      if not (has_flash s) then 0.0
      else begin
        (* older MSBs have been writing longer *)
        let age = 1.0 -. (float_of_int s.Region.loc.Region.msb /. float_of_int num_msbs) in
        let base = 0.55 *. age in
        Float.max 0.0 (Float.min 1.0 (base +. Ras_stats.Dist.uniform rng ~lo:0.0 ~hi:0.4))
      end)
    region.Region.servers

let fraction t id = if id >= 0 && id < Array.length t then t.(id) else 0.0

let bucket t id =
  let w = fraction t id in
  if w < 0.4 then 0 else if w < 0.75 then 1 else 2
