(* Fig. 8: allocation-time breakdown.  The paper: phase 1 is ~60% of total;
   phase 1 spends 67% of its time in the MIP step, phase 2 only 19% with
   ~70% split between the two build steps. *)

let run () =
  Report.heading "Figure 8: allocation time breakdown"
    ~paper:"phase1 60% of total; MIP is 67% of phase1 but 19% of phase2"
    ~expect:
      "phase1 dominated by builds and the root LP (its search stops at the root node once the \
       gap is under the capacity-slack cost); phase2 dominated by MIP at our scale";
  let runs = Fig07.runs () in
  let p1 = ref (0.0, 0.0, 0.0, 0.0) and p2 = ref (0.0, 0.0, 0.0, 0.0) in
  let n2 = ref 0 in
  let add (a, b, c, d) (t : Ras.Phases.timing) =
    ( a +. t.Ras.Phases.ras_build_s,
      b +. t.Ras.Phases.solver_build_s,
      c +. t.Ras.Phases.initial_state_s,
      d +. t.Ras.Phases.mip_s )
  in
  List.iter
    (fun (r : Ras.Async_solver.stats) ->
      p1 := add !p1 r.Ras.Async_solver.phase1.Ras.Phases.timing;
      match r.Ras.Async_solver.phase2 with
      | Some ph ->
        p2 := add !p2 ph.Ras.Phases.timing;
        incr n2
      | None -> ())
    runs;
  let print label (a, b, c, d) =
    let total = a +. b +. c +. d in
    if total > 0.0 then begin
      Report.row "%-8s ras-build %4.1f%%  solver-build %4.1f%%  initial %4.1f%%  MIP %4.1f%%\n"
        label (100.0 *. a /. total) (100.0 *. b /. total) (100.0 *. c /. total)
        (100.0 *. d /. total);
      total
    end
    else begin
      Report.row "%-8s (never ran)\n" label;
      0.0
    end
  in
  let t1 = print "phase 1" !p1 in
  let t2 = print "phase 2" !p2 in
  Report.row "phase 2 ran in %d/%d solves\n" !n2 (List.length runs);
  if t1 +. t2 > 0.0 then
    Report.row "phase 1 share of total: %.1f%% (paper: 60%%)\n" (100.0 *. t1 /. (t1 +. t2));
  (* Phase 1 stops on the paper's own Fig. 9 bar, usually at its root node,
     so its MIP share is small here.  Phase 2 spends a fixed node
     budget on a small model whose builds are near-free here, so MIP
     dominates it; the paper's 19% is a property of 10^6-variable builds.
     Project our per-variable build cost to the paper's scale. *)
  match List.rev (Fig10_11.sweep ()) with
  | biggest :: _ when biggest.Fig10_11.grouped1 > 0 ->
    let per_var = biggest.Fig10_11.build1_s /. float_of_int biggest.Fig10_11.grouped1 in
    Report.row
      "scale context: our build projects to ~%.0fs at the paper's 6M variables, while their \
       Fig. 10 measures ~600s of setup there — with setup that heavy, phase 2's 19%% MIP share \
       follows; at our scale builds are too cheap to show it\n"
      (per_var *. 6.0e6)
  | _ -> ()
