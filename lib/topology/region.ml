type location = { dc : int; msb : int; rack : int }

type server = { id : int; hw : Hardware.t; loc : location }

type t = {
  name : string;
  num_dcs : int;
  num_msbs : int;
  num_racks : int;
  servers : server array;
  msb_dc : int array;
  rack_msb : int array;
  msb_deploy_order : int array;
}

let num_servers t = Array.length t.servers

let servers_of_msb t msb =
  Array.fold_right (fun s acc -> if s.loc.msb = msb then s :: acc else acc) t.servers []

let hw_mix_of_msb t msb =
  let counts = Array.make Hardware.count 0 in
  Array.iter (fun s -> if s.loc.msb = msb then counts.(s.hw.Hardware.index) <- counts.(s.hw.Hardware.index) + 1) t.servers;
  let out = ref [] in
  for i = Hardware.count - 1 downto 0 do
    if counts.(i) > 0 then out := (Hardware.catalog.(i), counts.(i)) :: !out
  done;
  !out

let pp_summary ppf t =
  Format.fprintf ppf "region %s: %d DCs, %d MSBs, %d racks, %d servers" t.name t.num_dcs
    t.num_msbs t.num_racks (num_servers t)
