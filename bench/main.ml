(* Benchmark harness entry point: one experiment per paper table/figure plus
   ablations and kernel micro-benchmarks.

   Usage: main.exe [--quick] [experiment ...]
   Experiments: table1 fig2 fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12
                fig13 fig14 fig15 fig16 ablations kernels
   With no experiment arguments, everything runs.  Exits 1 when an
   experiment's checked claim fails: fig9 checks the paper's two phase-1
   quality claims, and fig12 and fig14 that no server of a reservation
   not yet enabled changes owner during the gradual enablement. *)

let experiments : (string * (unit -> unit)) list =
  [
    ("table1", Table1.run);
    ("fig2", Fig02.run);
    ("fig3", Fig03.run);
    ("fig4", Fig04.run);
    ("fig5", Fig05.run);
    ("fig7", Fig07.run);
    ("fig8", Fig08.run);
    ("fig9", Fig09.run);
    ("fig10", Fig10_11.run_fig10);
    ("fig11", Fig10_11.run_fig11);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig15", Fig15.run);
    ("fig16", Fig16.run);
    ("ablations", Ablations.run);
    ("kernels", Kernels.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  Scenarios.quick := quick;
  let selected = List.filter (fun a -> a <> "--quick") args in
  let to_run =
    if selected = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S (known: %s)\n" name
              (String.concat " " (List.map fst experiments));
            exit 2)
        selected
  in
  Printf.printf "RAS reproduction benchmarks%s - %d experiment(s)\n"
    (if quick then " (quick mode)" else "")
    (List.length to_run);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    to_run;
  Printf.printf "\nall experiments done in %.1fs\n" (Unix.gettimeofday () -. t0);
  if !Report.failed_checks > 0 then begin
    Printf.printf "%d check(s) failed\n" !Report.failed_checks;
    exit 1
  end
