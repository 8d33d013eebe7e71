(* Repeated runs in fresh processes, the stamped result file they produce,
   and the comparison of two such files against BENCHMARK.json's bounds. *)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the "exclusive" method), so the numbers here match the acceptance
   arithmetic applied to the benchmark. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    (q 1, median, q 3)
  end

(* ---- run stamp ---- *)

let commit () =
  try
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let rd, wr = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process "git" [| "git"; "rev-parse"; "HEAD" |] Unix.stdin wr null
    in
    Unix.close wr;
    Unix.close null;
    let ic = Unix.in_channel_of_descr rd in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let spec_params (s : Workloads.spec) =
  let r = s.Workloads.region and p = s.Workloads.solver in
  let num x = Json.Num (float_of_int x) in
  Json.Obj
    [
      ( "region",
        Json.Arr
          [
            num r.Ras_topology.Generator.num_dcs;
            num r.Ras_topology.Generator.msbs_per_dc;
            num r.Ras_topology.Generator.racks_per_msb;
            num r.Ras_topology.Generator.servers_per_rack;
          ] );
      ("region_seed", num r.Ras_topology.Generator.seed);
      ("node_limit", num p.Ras.Async_solver.node_limit);
      ("phase1_time_limit_s", Json.Num p.Ras.Async_solver.phase1_time_limit_s);
      ("phase2_time_limit_s", Json.Num p.Ras.Async_solver.phase2_time_limit_s);
      ("mip_gap_rel", Json.Num p.Ras.Async_solver.mip_gap_rel);
      ("mip_stall_nodes", num p.Ras.Async_solver.mip_stall_nodes);
      ("job_fill", Json.Num s.Workloads.job_fill);
      ("events_per_round", num s.Workloads.events);
      ("max_down", num s.Workloads.max_down);
      ("in_use_flips", Json.Bool s.Workloads.flips);
      ("resizes_per_round", num s.Workloads.resizes);
      ("resize_spread", Json.Num s.Workloads.resize_spread);
      ("resubmits_per_round", num s.Workloads.resubmits);
    ]

(* ---- repeated runs ---- *)

(* One run of [args] in a fresh process of this executable; its stderr
   passes through, and its result is the last line of its stdout. *)
let child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then last := line
     done
   with End_of_file -> ());
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Json.parse !last
  | _ -> failwith (Printf.sprintf "run %s failed" (String.concat " " args))

let repeat ~workloads ~repeat ~seed ~seconds ~traced ~out =
  let results =
    List.map
      (fun (s : Workloads.spec) ->
        let runs =
          List.init repeat (fun k ->
              child
                [
                  "--workload"; s.Workloads.name;
                  "--seed"; string_of_int (seed + k);
                  "--seconds"; string_of_int seconds;
                  "--trace"; (if traced then "1" else "0");
                ])
        in
        let names = List.map fst (Json.to_assoc (Json.member "metrics" (List.hd runs))) in
        let metrics =
          List.map
            (fun name ->
              let per_run = List.map (fun r -> Json.member name (Json.member "metrics" r)) runs in
              let values = List.map (fun m -> Json.to_num (Json.member "value" m)) per_run in
              let q1, median, q3 = quartiles values in
              ( name,
                Json.Obj
                  [
                    ("unit", Json.member "unit" (List.hd per_run));
                    ("median", Json.Num median);
                    ("q1", Json.Num q1);
                    ("q3", Json.Num q3);
                    ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
                  ] ))
            names
        in
        let sum key =
          List.fold_left (fun acc r -> acc +. Json.to_num (Json.member key r)) 0.0 runs
        in
        ( s.Workloads.name,
          Json.Obj
            [
              ("params", spec_params s);
              ( "correct",
                Json.Bool (List.for_all (fun r -> Json.member "correct" r = Json.Bool true) runs) );
              ("attempted", Json.Num (sum "attempted"));
              ("failed", Json.Num (sum "failed"));
              ("metrics", Json.Obj metrics);
            ] ))
      workloads
  in
  let doc =
    Json.Obj
      [
        ( "stamp",
          Json.Obj
            [
              ("commit", Json.Str (commit ()));
              ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
              ( "ocamlrunparam",
                Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
              ("ocaml_version", Json.Str Sys.ocaml_version);
              ("seed", Json.Num (float_of_int seed));
              ("seconds", Json.Num (float_of_int seconds));
              ("repeat", Json.Num (float_of_int repeat));
              ("trace", Json.Bool traced);
            ] );
        ("workloads", Json.Obj results);
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun (w, r) ->
      List.iter
        (fun (name, m) ->
          Printf.printf "%-13s %-34s %14.6g %-6s [%.6g, %.6g]\n" w name
            (Json.to_num (Json.member "median" m))
            (Json.to_str (Json.member "unit" m))
            (Json.to_num (Json.member "q1" m))
            (Json.to_num (Json.member "q3" m)))
        (Json.to_assoc (Json.member "metrics" r)))
    results;
  Printf.printf "wrote %s\n" out

(* ---- comparison ---- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [a] is the base, [b] the candidate.  A metric whose own spread
   (quartile distance over median, either side) exceeds its bound is
   unresolved, unless every run of [b] beats every run of [a]. *)
let judge ~lower_better ~bound a b =
  let values m = List.map Json.to_num (Json.to_list (Json.member "values" m)) in
  let med m = Json.to_num (Json.member "median" m) in
  let spread m =
    (Json.to_num (Json.member "q3" m) -. Json.to_num (Json.member "q1" m)) /. Float.abs (med m)
  in
  let worse_by =
    let d = (med b -. med a) /. Float.abs (med a) in
    if lower_better then d else -.d
  in
  let beats x y = if lower_better then x < y else x > y in
  let all_better =
    List.for_all (fun vb -> List.for_all (fun va -> beats vb va) (values a)) (values b)
  in
  if Float.max (spread a) (spread b) > bound then (if all_better then Better else Unresolved)
  else if worse_by > bound then Worse
  else if worse_by < -.bound then Better
  else Same

let compare_files ~spec a_path b_path =
  let bench = Json.read_file spec in
  let a = Json.member "workloads" (Json.read_file a_path) in
  let b = Json.member "workloads" (Json.read_file b_path) in
  let regressions = ref 0 in
  List.iter
    (fun (w, wa) ->
      match Json.member w b with
      | Json.Null -> Printf.printf "%-13s missing from %s\n" w b_path
      | wb ->
        (* a failed event or round is a regression however fast the rest got *)
        let failed w = Json.to_num (Json.member "failed" w) in
        let v =
          if failed wb > failed wa || Json.member "correct" wb <> Json.Bool true then Worse
          else if failed wb < failed wa then Better
          else Same
        in
        if v = Worse then incr regressions;
        Printf.printf "%-13s %-16s %12.6g -> %12.6g  %s\n" w "failed" (failed wa) (failed wb)
          (verdict_name v);
        List.iter
          (fun m ->
            let name = Json.to_str (Json.member "name" m) in
            let ma = Json.member name (Json.member "metrics" wa) in
            let mb = Json.member name (Json.member "metrics" wb) in
            if ma <> Json.Null && mb <> Json.Null then begin
              let bound = Json.to_num (Json.member "bound" m) in
              let lower_better = Json.member "better" m = Json.Str "lower" in
              let v = judge ~lower_better ~bound ma mb in
              if v = Worse then incr regressions;
              Printf.printf "%-13s %-16s %12.6g -> %12.6g  bound %5.3g%%  %s\n" w name
                (Json.to_num (Json.member "median" ma))
                (Json.to_num (Json.member "median" mb))
                (bound *. 100.0) (verdict_name v)
            end)
          (Json.to_list (Json.member "end_to_end" bench)))
    (Json.to_assoc a);
  !regressions = 0
