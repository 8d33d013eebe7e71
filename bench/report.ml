(* Text-table rendering for the figure benchmarks: every experiment prints a
   header with its paper reference and expectation, then rows of data. *)

let heading id ~paper ~expect =
  Printf.printf "\n=== %s ===\n" id;
  Printf.printf "paper:    %s\n" paper;
  Printf.printf "expected: %s\n" expect;
  Printf.printf "%s\n" (String.make 72 '-')

let row fmt = Printf.printf fmt

let series ~name ~unit_ points =
  Printf.printf "%s (%s):\n" name unit_;
  Array.iter (fun (t, v) -> Printf.printf "  %10.1f  %g\n" t v) points

let series_weekly ~name ~unit_ points =
  Printf.printf "%s (%s, weekly buckets):\n" name unit_;
  Array.iter (fun (t, v) -> Printf.printf "  week %4.1f  %.4f\n" (t /. 168.0) v) points

let summary name (s : Ras_stats.Summary.t) =
  Printf.printf "%-28s %s\n" name (Format.asprintf "%a" Ras_stats.Summary.pp s)

let pct x = 100.0 *. x

(* A claim an experiment checks.  A failed one prints at once and makes
   main.exe exit non-zero after every selected experiment has run. *)
let failed_checks = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failed_checks;
        Printf.printf "CHECK FAILED: %s\n" msg
      end)
    fmt
