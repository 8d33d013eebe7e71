(* Fig. 7: distribution of regional allocation (solve) times.  The paper's
   region of several hundred thousand servers solves in a tight band around
   1.8ks (p95 2.2ks, p99 2.45ks), within the one-hour SLO.  Our simulated
   region is ~1000x smaller so absolute times are seconds; the reproduced
   property is the tight distribution (p99 within ~1.4x of the mean) under
   moderate pool changes between solves.  The rounds it collects also feed
   Figs. 8 and 9 and the move-cost ablation. *)

module Broker = Ras_broker.Broker
module Engine = Ras_sim.Engine
module Summary = Ras_stats.Summary
module Rng = Ras_stats.Rng

let churn = 0.01
let flip_prob = 0.7

(* [solves] rounds of [System] on the Small preset with rack goals, each
   in a slightly different world: a [churn] fraction of servers fails for
   the round (tier-1 replaces them first) and some servers flip their
   in-use bit (container churn), so the spread of solve times and gaps is
   meaningful. *)
let collect ~solver ~solves =
  let preset = Scenarios.Small in
  let region = Scenarios.region_of preset in
  let sys = Scenarios.system ~solver (Broker.create region) in
  List.iter (Ras.System.add_request sys)
    (Scenarios.with_rack_limits (Scenarios.requests_of preset region));
  let broker = Ras.System.broker sys in
  let rng = Rng.create 2024 in
  let n = Broker.num_servers broker in
  List.init solves (fun _ ->
      let down =
        List.init (Stdlib.max 1 (int_of_float (float_of_int n *. churn))) (fun _ -> Rng.int rng n)
      in
      List.iter (fun id -> Broker.mark_down broker id Ras_failures.Unavail.Unplanned_sw) down;
      for id = 0 to n - 1 do
        match Broker.current_owner broker id with
        | Broker.Reservation _ ->
          if Rng.float rng 1.0 < flip_prob then Broker.set_in_use broker id true
        | Broker.Free | Broker.Shared_buffer | Broker.Elastic _ -> ()
      done;
      (* past tier-1's one-minute replacement delay *)
      Ras.System.run sys ~until_h:(Engine.now (Ras.System.engine sys) +. (2.0 /. 60.0));
      let stats = Ras.System.solve_now sys in
      List.iter (fun id -> Broker.mark_up broker id) down;
      stats)

let runs =
  let cache = lazy (collect ~solver:Scenarios.interactive_solver ~solves:(Scenarios.scaled 24)) in
  fun () -> Lazy.force cache

let run () =
  Report.heading "Figure 7: allocation time distribution"
    ~paper:"mean 1.8ks, p95 2.2ks, p99 2.45ks — tight, inside the 1h SLO"
    ~expect:"tight distribution (p95/mean < ~1.3, p99/mean < ~1.5) at our reduced scale";
  let runs = runs () in
  let s = Summary.create () in
  List.iter (fun (r : Ras.Async_solver.stats) -> Summary.add s r.Ras.Async_solver.duration_s) runs;
  Report.summary "allocation time (s)" s;
  let mean = Summary.mean s in
  Report.row "p95/mean = %.2f   p99/mean = %.2f   (paper: %.2f and %.2f)\n"
    (Summary.percentile s 95.0 /. mean)
    (Summary.percentile s 99.0 /. mean)
    (2200.0 /. 1800.0) (2450.0 /. 1800.0);
  let hist = Summary.histogram s ~bins:8 in
  Array.iteri
    (fun i c ->
      let lo = hist.Summary.lo +. (float_of_int i *. (hist.Summary.hi -. hist.Summary.lo) /. 8.0) in
      Report.row "  %6.2fs  %s\n" lo (String.make c '#'))
    hist.Summary.counts;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  Report.row "solver kernels: %d B&B nodes (%d warm-started), %d LP pivots across %d solves\n"
    (sum (fun r -> r.Ras.Async_solver.solver_nodes))
    (sum (fun r -> r.Ras.Async_solver.solver_warm_starts))
    (sum (fun r -> r.Ras.Async_solver.solver_lp_iterations))
    (List.length runs)
