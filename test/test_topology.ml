(* Tests for ras_topology: hardware catalog, region structure and the
   synthetic generator's age-skew properties. *)

module Hw = Ras_topology.Hardware
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator

(* 4 DCs x 9 MSBs (36, like the production region of section 3.3.1), 12
   racks per MSB, 12 servers per rack *)
let region_a_params =
  {
    Generator.small_params with
    Generator.name = "region-a";
    num_dcs = 4;
    msbs_per_dc = 9;
    racks_per_msb = 12;
    servers_per_rack = 12;
  }

(* Structural invariants of a region: every index in range, [rack_msb] and
   [msb_dc] consistent with server locations, deploy order a permutation. *)
let validate (t : Region.t) =
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  if Array.length t.msb_dc <> t.num_msbs then fail "msb_dc length mismatch";
  if Array.length t.rack_msb <> t.num_racks then fail "rack_msb length mismatch";
  Array.iter (fun dc -> if dc < 0 || dc >= t.num_dcs then fail "msb_dc out of range") t.msb_dc;
  Array.iter (fun m -> if m < 0 || m >= t.num_msbs then fail "rack_msb out of range") t.rack_msb;
  Array.iteri
    (fun i (s : Region.server) ->
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

let test_catalog_shape () =
  Alcotest.(check int) "sixteen subtypes" 16 Hw.count;
  let codes = Array.to_list (Array.map (fun h -> h.Hw.code) Hw.catalog) in
  Alcotest.(check int) "codes unique" 16 (List.length (List.sort_uniq compare codes));
  Array.iteri (fun i h -> Alcotest.(check int) "dense index" i h.Hw.index) Hw.catalog

let test_catalog_generations () =
  Array.iter
    (fun h ->
      Alcotest.(check bool) "generation 1..3" true (h.Hw.cpu_generation >= 1 && h.Hw.cpu_generation <= 3);
      Alcotest.(check bool) "positive rru" true (h.Hw.base_rru > 0.0);
      Alcotest.(check bool) "positive power" true (h.Hw.power_watts > 0.0))
    Hw.catalog

let test_find_by_code () =
  (match Hw.find_by_code "C4-S2" with
  | Some h -> Alcotest.(check int) "storage gen 2" 2 h.Hw.cpu_generation
  | None -> Alcotest.fail "C4-S2 missing");
  Alcotest.(check bool) "unknown code" true (Hw.find_by_code "C99" = None)

let test_generation_share_sums () =
  (* the Fig. 2 age skew needs every generation in the catalog: an absent
     one would make the "no gen-3 in the oldest MSB" check vacuous *)
  let share gen =
    let n =
      Array.fold_left (fun acc h -> if h.Hw.cpu_generation = gen then acc + 1 else acc) 0 Hw.catalog
    in
    float_of_int n /. float_of_int Hw.count
  in
  List.iter
    (fun gen ->
      Alcotest.(check bool) (Printf.sprintf "generation %d present" gen) true (share gen > 0.0))
    [ 1; 2; 3 ];
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 (share 1 +. share 2 +. share 3)

let test_generate_valid () =
  let region = Generator.generate Generator.small_params in
  (match validate region with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "server count" (2 * 3 * 4 * 6) (Region.num_servers region);
  Alcotest.(check int) "msb count" 6 region.Region.num_msbs;
  Alcotest.(check int) "rack count" 24 region.Region.num_racks

let test_generate_deterministic () =
  let a = Generator.generate Generator.small_params in
  let b = Generator.generate Generator.small_params in
  Array.iteri
    (fun i (s : Region.server) ->
      Alcotest.(check string) "same hardware" s.Region.hw.Hw.code
        b.Region.servers.(i).Region.hw.Hw.code)
    a.Region.servers

let test_racks_homogeneous () =
  let region = Generator.generate Generator.small_params in
  let rack_hw = Hashtbl.create 32 in
  Array.iter
    (fun (s : Region.server) ->
      match Hashtbl.find_opt rack_hw s.Region.loc.Region.rack with
      | Some code -> Alcotest.(check string) "rack homogeneous" code s.Region.hw.Hw.code
      | None -> Hashtbl.replace rack_hw s.Region.loc.Region.rack s.Region.hw.Hw.code)
    region.Region.servers

let test_age_skew () =
  let region = Generator.generate region_a_params in
  let gen_share msb gen =
    let total = ref 0 and matching = ref 0 in
    Array.iter
      (fun (s : Region.server) ->
        if s.Region.loc.Region.msb = msb then begin
          incr total;
          if s.Region.hw.Hw.cpu_generation = gen then incr matching
        end)
      region.Region.servers;
    float_of_int !matching /. float_of_int (max 1 !total)
  in
  let newest = region.Region.num_msbs - 1 in
  Alcotest.(check (float 1e-9)) "no gen-3 in oldest MSB" 0.0 (gen_share 0 3);
  Alcotest.(check (float 1e-9)) "no gen-1 in newest MSB" 0.0 (gen_share newest 1)

let test_extend_preserves_ids () =
  let region = Generator.generate Generator.small_params in
  let bigger =
    Generator.extend region ~new_msbs_per_dc:1 ~racks_per_msb:4 ~servers_per_rack:6 ~seed:2
  in
  (match validate bigger with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "msbs grew" (region.Region.num_msbs + 2) bigger.Region.num_msbs;
  Array.iteri
    (fun i (s : Region.server) ->
      Alcotest.(check int) "old ids stable" s.Region.id bigger.Region.servers.(i).Region.id;
      Alcotest.(check string) "old hardware stable" s.Region.hw.Hw.code
        bigger.Region.servers.(i).Region.hw.Hw.code)
    region.Region.servers;
  (* new MSBs are the youngest: they must carry no generation-1 hardware *)
  let new_msb = bigger.Region.num_msbs - 1 in
  Array.iter
    (fun (s : Region.server) ->
      if s.Region.loc.Region.msb = new_msb then
        Alcotest.(check bool) "new msb has new hw" true (s.Region.hw.Hw.cpu_generation >= 2))
    bigger.Region.servers

let test_hw_mix_and_rru () =
  let region = Generator.generate Generator.small_params in
  let mix = Region.hw_mix_of_msb region 0 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 mix in
  Alcotest.(check int) "mix covers msb servers" (4 * 6) total;
  Alcotest.(check bool) "mixed subtypes carry rru" true
    (List.for_all (fun (hw, _) -> hw.Hw.base_rru > 0.0) mix)

let test_servers_of_msb () =
  let region = Generator.generate Generator.small_params in
  let all =
    List.init region.Region.num_msbs (fun m -> List.length (Region.servers_of_msb region m))
  in
  Alcotest.(check int) "partition covers all" (Region.num_servers region)
    (List.fold_left ( + ) 0 all)

let test_msbs_of_dc () =
  let region = Generator.generate Generator.small_params in
  let counts =
    List.init region.Region.num_dcs (fun d ->
        Array.fold_left (fun acc dc -> if dc = d then acc + 1 else acc) 0 region.Region.msb_dc)
  in
  Alcotest.(check (list int)) "3 msbs per dc" [ 3; 3 ] counts

let prop_validate_rejects_corruption =
  QCheck.Test.make ~name:"validate rejects corrupted rack_msb" ~count:50 QCheck.(int_range 0 23)
    (fun rack ->
      let region = Generator.generate Generator.small_params in
      let bad_rack_msb = Array.copy region.Region.rack_msb in
      bad_rack_msb.(rack) <- (bad_rack_msb.(rack) + 1) mod region.Region.num_msbs;
      let corrupted = { region with Region.rack_msb = bad_rack_msb } in
      match validate corrupted with Ok () -> false | Error _ -> true)

let suite =
  [
    Alcotest.test_case "catalog shape" `Quick test_catalog_shape;
    Alcotest.test_case "catalog generations" `Quick test_catalog_generations;
    Alcotest.test_case "find_by_code" `Quick test_find_by_code;
    Alcotest.test_case "generation shares" `Quick test_generation_share_sums;
    Alcotest.test_case "generate valid" `Quick test_generate_valid;
    Alcotest.test_case "generate deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "racks homogeneous" `Quick test_racks_homogeneous;
    Alcotest.test_case "age skew" `Quick test_age_skew;
    Alcotest.test_case "extend preserves ids" `Quick test_extend_preserves_ids;
    Alcotest.test_case "hw mix and rru" `Quick test_hw_mix_and_rru;
    Alcotest.test_case "servers_of_msb partition" `Quick test_servers_of_msb;
    Alcotest.test_case "msbs_of_dc" `Quick test_msbs_of_dc;
    QCheck_alcotest.to_alcotest prop_validate_rejects_corruption;
  ]
