type params = {
  name : string;
  num_dcs : int;
  msbs_per_dc : int;
  racks_per_msb : int;
  servers_per_rack : int;
  seed : int;
}

let small_params =
  { name = "region-small"; num_dcs = 2; msbs_per_dc = 3; racks_per_msb = 4; servers_per_rack = 6; seed = 1 }

(* The north-star scale: 36 MSBs as in the production region of §3.3.1,
   ~10^6 servers.  Because [build_servers] draws each rack's hardware once
   (the RNG sequence never sees [servers_per_rack]), scaling this preset
   down by shrinking [servers_per_rack] keeps the rack/class structure —
   and hence the compiled model — identical; the scale-sweep tests rely on
   exactly that. *)
let region_scale_params =
  {
    name = "region-scale";
    num_dcs = 4;
    msbs_per_dc = 9;
    racks_per_msb = 580;
    servers_per_rack = 48;
    seed = 6;
  }

let category_weight = function
  | Hardware.Compute -> 0.40
  | Hardware.Storage -> 0.18
  | Hardware.Memory -> 0.06
  | Hardware.Flash -> 0.08
  | Hardware.Gpu -> 0.10
  | Hardware.Asic -> 0.05
  | Hardware.Compute_dense -> 0.13

(* Hardware generations have deployment windows: a subtype is only installed
   in MSBs whose age falls inside its generation's window.  This produces the
   Fig. 2 skew (old MSBs have no gen-3 hardware, new MSBs no gen-1). *)
let generation_window = function
  | 1 -> (0.0, 0.6)
  | 2 -> (0.2, 0.9)
  | _ -> (0.5, 1.0)

let subtype_weights ~age =
  Array.map
    (fun h ->
      let lo, hi = generation_window h.Hardware.cpu_generation in
      if age >= lo && age <= hi then category_weight h.Hardware.category else 0.0)
    Hardware.catalog

(* Build servers for MSBs [first_msb, last_msb); racks are homogeneous in
   hardware, with the rack's subtype drawn from the age-dependent mixture. *)
let build_servers rng ~ages ~first_msb ~last_msb ~racks_per_msb ~servers_per_rack ~first_rack
    ~first_server ~msb_dc =
  let servers = ref [] in
  let rack_msb = ref [] in
  let rack = ref first_rack and server = ref first_server in
  for msb = first_msb to last_msb - 1 do
    let weights = subtype_weights ~age:ages.(msb) in
    for _ = 1 to racks_per_msb do
      let hw = Hardware.catalog.(Ras_stats.Dist.categorical rng weights) in
      rack_msb := msb :: !rack_msb;
      for _ = 1 to servers_per_rack do
        let s =
          { Region.id = !server; hw; loc = { Region.dc = msb_dc msb; msb; rack = !rack } }
        in
        servers := s :: !servers;
        incr server
      done;
      incr rack
    done
  done;
  (List.rev !servers, List.rev !rack_msb)

let generate p =
  let rng = Ras_stats.Rng.create p.seed in
  let num_msbs = p.num_dcs * p.msbs_per_dc in
  (* MSB index equals deployment position; deployment interleaves DCs. *)
  let msb_dc m = m mod p.num_dcs in
  let ages =
    Array.init num_msbs (fun m ->
        if num_msbs <= 1 then 0.0 else float_of_int m /. float_of_int (num_msbs - 1))
  in
  let servers, rack_msbs =
    build_servers rng ~ages ~first_msb:0 ~last_msb:num_msbs ~racks_per_msb:p.racks_per_msb
      ~servers_per_rack:p.servers_per_rack ~first_rack:0 ~first_server:0 ~msb_dc
  in
  {
    Region.name = p.name;
    num_dcs = p.num_dcs;
    num_msbs;
    num_racks = num_msbs * p.racks_per_msb;
    servers = Array.of_list servers;
    msb_dc = Array.init num_msbs msb_dc;
    rack_msb = Array.of_list rack_msbs;
    msb_deploy_order = Array.init num_msbs (fun i -> i);
  }

let extend (region : Region.t) ~new_msbs_per_dc ~racks_per_msb ~servers_per_rack ~seed =
  let rng = Ras_stats.Rng.create seed in
  let extra_msbs = region.Region.num_dcs * new_msbs_per_dc in
  let num_msbs = region.Region.num_msbs + extra_msbs in
  let msb_dc m =
    if m < region.Region.num_msbs then region.Region.msb_dc.(m)
    else (m - region.Region.num_msbs) mod region.Region.num_dcs
  in
  let ages =
    Array.init num_msbs (fun m ->
        if num_msbs <= 1 then 0.0 else float_of_int m /. float_of_int (num_msbs - 1))
  in
  let new_servers, new_rack_msbs =
    build_servers rng ~ages ~first_msb:region.Region.num_msbs ~last_msb:num_msbs ~racks_per_msb
      ~servers_per_rack ~first_rack:region.Region.num_racks
      ~first_server:(Region.num_servers region) ~msb_dc
  in
  {
    region with
    Region.num_msbs;
    num_racks = region.Region.num_racks + (extra_msbs * racks_per_msb);
    servers = Array.append region.Region.servers (Array.of_list new_servers);
    msb_dc = Array.init num_msbs msb_dc;
    rack_msb = Array.append region.Region.rack_msb (Array.of_list new_rack_msbs);
    msb_deploy_order = Array.init num_msbs (fun i -> i);
  }
