(* Fig. 9: phase-1 MIP quality gap under the solve timeout.  90% of the
   paper's solves are optimal within 200 preemption-units of cost; 99% are
   proven optimal with respect to fixing all softened constraints.  Both
   shares are checked: falling short of either fails the run. *)

module Summary = Ras_stats.Summary

let run () =
  Report.heading "Figure 9: phase-1 MIP quality gap"
    ~paper:"90% of solves proven within 200 preemptions of optimal; 99% proven optimal on fixing softened constraints"
    ~expect:"high share of solves inside both thresholds despite timeouts";
  let runs = Fig07.runs () in
  let gaps = Summary.create () in
  let within_200 = ref 0 and constraints_ok = ref 0 and n = ref 0 in
  List.iter
    (fun (s : Ras.Async_solver.stats) ->
      incr n;
      if Float.is_finite s.Ras.Async_solver.gap_preemptions then
        Summary.add gaps s.Ras.Async_solver.gap_preemptions;
      if s.Ras.Async_solver.gap_preemptions <= 200.0 then incr within_200;
      if s.Ras.Async_solver.proven_constraints_fixed then incr constraints_ok)
    runs;
  Report.summary "gap (preemption units)" gaps;
  let share k = float_of_int k /. float_of_int !n in
  Report.row "proven within 200 preemptions: %d/%d = %.0f%%  (paper: 90%%)\n" !within_200 !n
    (100.0 *. share !within_200);
  Report.row "proven optimal on softened constraints: %d/%d = %.0f%%  (paper: 99%%)\n"
    !constraints_ok !n
    (100.0 *. share !constraints_ok);
  Report.check (share !within_200 >= 0.9) "fig9: %d/%d solves within 200 preemptions, under 90%%"
    !within_200 !n;
  Report.check (share !constraints_ok >= 0.99)
    "fig9: %d/%d solves proven on softened constraints, under 99%%" !constraints_ok !n
