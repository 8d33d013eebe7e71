(* The region benchmark: see benchmark/README.md.

     ras_bench.exe --workload W [--seed S] [--seconds N] [--trace 0|1] [--spans FILE]
       one run of workload W; the last stdout line is its JSON result
     ras_bench.exe --repeat K [--workload W ...] [--seed S] [--seconds N] [--out FILE]
       K runs of each workload (BENCHMARK.json's by default) in fresh processes, seeds
       S..S+K-1; writes medians and quartiles to FILE (BENCH_ras.json)
     ras_bench.exe compare A.json B.json [--spec BENCHMARK.json]
       per workload x end-to-end metric: better, same, worse or unresolved;
       exits 1 on any regression
     ras_bench.exe --smoke [--spec BENCHMARK.json]
       solve-medium, 2 rounds x 10 events, traced, every check on; fails
       when the metric names or run_seconds differ from the spec file's *)

let usage =
  "ras_bench.exe [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--repeat K] | compare A B"

(* The result line: [correct] is always true here, because a failed output
   check exits before anything is printed. *)
let result_line (o : Loop.outcome) metrics =
  let metric (name, v, unit) =
    (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool true);
         ("attempted", Json.Num (float_of_int o.Loop.attempted));
         ("failed", Json.Num (float_of_int o.Loop.failed));
         ("metrics", Json.Obj (List.map metric metrics));
       ])

(* The measured seconds of a run without [--seconds]: BENCHMARK.json's
   [run_seconds], so the documented command does the measured work. *)
let default_seconds = 30

(* The workload and metric names BENCHMARK.json declares must be exactly
   the ones the code runs and prints, and its run length the default here,
   so the file and the code cannot drift apart. *)
let check_spec ~spec (o : Loop.outcome) layers =
  let bench = Json.read_file spec in
  if Json.member "run_seconds" bench <> Json.Num (float_of_int default_seconds) then
    failwith (Printf.sprintf "%s: run_seconds is not %d" spec default_seconds);
  let declared key =
    Json.to_list (Json.member key bench)
    |> List.map (fun m -> Json.to_str (Json.member "name" m))
    |> List.sort compare
  in
  let names l = List.sort compare l in
  if declared "workloads" <> names (List.map (fun s -> s.Workloads.name) Workloads.benchmarked)
  then failwith (spec ^ ": workloads differ from Workloads.benchmarked");
  let printed l = names (List.map (fun (n, _, _) -> n) l) in
  if declared "end_to_end" <> printed o.Loop.end_to_end then
    failwith (spec ^ ": end_to_end names differ from what a run prints");
  if declared "per_layer" <> printed layers then
    failwith (spec ^ ": per_layer names differ from what a run prints")

let () =
  let workloads = ref [] and seed = ref 11 and seconds = ref default_seconds and traced = ref false in
  let spans = ref None and repeat = ref 0 and out = ref "BENCH_ras.json" in
  let smoke = ref false and spec = ref "BENCHMARK.json" and anon = ref [] in
  let set_trace = function
    | 0 -> traced := false
    | 1 -> traced := true
    | _ -> raise (Arg.Bad "--trace takes 0 or 1")
  in
  Arg.parse
    [
      ("--workload", Arg.String (fun w -> workloads := w :: !workloads), "W run workload W");
      ("--seed", Arg.Set_int seed, "S failure seed (default 11)");
      ( "--seconds",
        Arg.Set_int seconds,
        Printf.sprintf "N measured seconds per run (default %d)" default_seconds );
      ("--trace", Arg.Int set_trace, "0|1 report per-layer metrics instead of end-to-end ones");
      ( "--spans",
        Arg.String (fun f -> spans := Some f),
        "FILE write a traced run's records as JSON lines" );
      ("--repeat", Arg.Set_int repeat, "K runs per workload, each in a fresh process");
      ("--out", Arg.Set_string out, "FILE result file of --repeat (default BENCH_ras.json)");
      ("--smoke", Arg.Set smoke, " a short checked run of solve-medium");
      ("--spec", Arg.Set_string spec, "FILE benchmark definition (default BENCHMARK.json)");
    ]
    (fun a -> anon := a :: !anon)
    usage;
  let specs () =
    match List.rev !workloads with
    | [] -> Workloads.benchmarked
    | names ->
      List.map
        (fun n ->
          match Workloads.find n with
          | Some s -> s
          | None ->
            Printf.eprintf "unknown workload %s (known: %s)\n" n
              (String.concat ", " (List.map (fun s -> s.Workloads.name) Workloads.all));
            exit 2)
        names
  in
  try
    match (List.rev !anon, specs ()) with
    | [ "compare"; a; b ], _ -> if not (Report.compare_files ~spec:!spec a b) then exit 1
    | _ :: _, _ ->
      prerr_endline usage;
      exit 2
    | [], _ when !smoke ->
      let o = Loop.run Workloads.solve_medium ~seed:!seed ~seconds:0.0 ~traced:true ~smoke:true in
      let layers = Loop.layer_metrics o.Loop.trace in
      check_spec ~spec:!spec o layers;
      print_endline (result_line o (o.Loop.end_to_end @ layers))
    | [], specs when !repeat > 0 ->
      Report.repeat ~workloads:specs ~repeat:!repeat ~seed:!seed ~seconds:!seconds ~traced:!traced
        ~out:!out
    | [], [ s ] ->
      let o =
        Loop.run s ~seed:!seed ~seconds:(float_of_int !seconds) ~traced:!traced ~smoke:false
      in
      Option.iter
        (fun path -> Trace.write_jsonl o.Loop.trace ~path ~workload:s.Workloads.name ~seed:!seed)
        !spans;
      let metrics =
        if !traced then Loop.layer_metrics o.Loop.trace else o.Loop.end_to_end
      in
      print_endline (result_line o metrics)
    | [], _ ->
      prerr_endline "one --workload per run; use --repeat K for several";
      exit 2
  with Loop.Check_failed msg ->
    Printf.eprintf "output check failed: %s\n" msg;
    exit 1
