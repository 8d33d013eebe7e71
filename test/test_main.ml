(* Aggregated test entry point: one Alcotest suite per library.

   The [registry] suite audits this file against the test directory: every
   [test_*.ml] compiled into the runner must be registered below, so a suite
   that is written but never wired up fails `dune runtest` instead of
   silently not running. *)

let suites =
  [
    ("stats", Test_stats.suite);
    ("mip", Test_mip.suite);
    ("basis", Test_basis.suite);
    ("differential", Test_differential.suite);
    ("sparse_kernels", Test_sparse_kernels.suite);
    ("warmstart", Test_warmstart.suite);
    ("presolve", Test_presolve.suite);
    ("topology", Test_topology.suite);
    ("workload", Test_workload.suite);
    ("failures", Test_failures.suite);
    ("broker", Test_broker.suite);
    ("twine", Test_twine.suite);
    ("sim", Test_sim.suite);
    ("core", Test_core.suite);
    ("reactive", Test_reactive.suite);
    ("portal", Test_portal.suite);
    ("wear", Test_wear.suite);
    ("properties", Test_properties.suite);
    ("region_scale", Test_region_scale.suite);
  ]

(* dune copies the test sources next to the runner, so the files on disk at
   runtime are exactly the modules linked into this executable *)
let audit_registration () =
  let registered = List.map fst suites in
  let on_disk =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter_map (fun f ->
           if
             String.length f > 8
             && String.sub f 0 5 = "test_"
             && Filename.check_suffix f ".ml"
           then Some (Filename.chop_suffix (String.sub f 5 (String.length f - 5)) ".ml")
           else None)
    |> List.filter (fun name -> name <> "main")
    |> List.sort compare
  in
  let missing = List.filter (fun name -> not (List.mem name registered)) on_disk in
  if missing <> [] then
    Alcotest.failf "test suites compiled but not registered in test_main.ml: %s"
      (String.concat ", " missing)

let registry_suite =
  [ Alcotest.test_case "every test_*.ml suite is registered" `Quick audit_registration ]

let () = Alcotest.run "ras-reproduction" (suites @ [ ("registry", registry_suite) ])
