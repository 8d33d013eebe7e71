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

let validate t =
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  if Array.length t.msb_dc <> t.num_msbs then fail "msb_dc length mismatch";
  if Array.length t.rack_msb <> t.num_racks then fail "rack_msb length mismatch";
  Array.iter (fun dc -> if dc < 0 || dc >= t.num_dcs then fail "msb_dc out of range") t.msb_dc;
  Array.iter (fun m -> if m < 0 || m >= t.num_msbs then fail "rack_msb out of range") t.rack_msb;
  Array.iteri
    (fun i s ->
      if s.id <> i then fail "server id mismatch";
      if s.loc.dc < 0 || s.loc.dc >= t.num_dcs then fail "server dc out of range";
      if s.loc.msb < 0 || s.loc.msb >= t.num_msbs then fail "server msb out of range";
      if s.loc.rack < 0 || s.loc.rack >= t.num_racks then fail "server rack out of range";
      if s.loc.rack >= 0 && s.loc.rack < t.num_racks && t.rack_msb.(s.loc.rack) <> s.loc.msb then
        fail "server rack/msb inconsistent";
      if s.loc.msb >= 0 && s.loc.msb < t.num_msbs && t.msb_dc.(s.loc.msb) <> s.loc.dc then
        fail "server msb/dc inconsistent")
    t.servers;
  if Array.length t.msb_deploy_order <> t.num_msbs then fail "deploy order length mismatch"
  else begin
    let seen = Array.make t.num_msbs false in
    Array.iter
      (fun m ->
        if m < 0 || m >= t.num_msbs then fail "deploy order out of range"
        else if seen.(m) then fail "deploy order repeats an MSB"
        else seen.(m) <- true)
      t.msb_deploy_order
  end;
  match !error with None -> Ok () | Some msg -> Error msg

let hw_mix_of_msb t msb =
  let counts = Array.make Hardware.count 0 in
  Array.iter (fun s -> if s.loc.msb = msb then counts.(s.hw.Hardware.index) <- counts.(s.hw.Hardware.index) + 1) t.servers;
  let out = ref [] in
  for i = Hardware.count - 1 downto 0 do
    if counts.(i) > 0 then out := (Hardware.catalog.(i), counts.(i)) :: !out
  done;
  !out

let total_rru t = Array.fold_left (fun acc s -> acc +. s.hw.Hardware.base_rru) 0.0 t.servers

let pp_summary ppf t =
  Format.fprintf ppf "region %s: %d DCs, %d MSBs, %d racks, %d servers" t.name t.num_dcs
    t.num_msbs t.num_racks (num_servers t)
