(* ras_sim: command-line driver for the RAS reproduction.

   Subcommands:
     region   — generate a synthetic region and print its topology/hardware mix
     solve    — one System round (Async Solver pass, plan applied) over a
                generated scenario, with reports
     simulate — run the full system (health, hourly solves, mover, containers)
                for N days and dump the metric time series
     drill    — MSB-failure drill on a region after one System round *)

open Cmdliner
module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Failure_model = Ras_failures.Failure_model
module Unavail = Ras_failures.Unavail

(* ---------- shared args ---------- *)

let dcs =
  Arg.(value & opt int 2 & info [ "dcs" ] ~docv:"N" ~doc:"Number of datacenters.")

let msbs =
  Arg.(value & opt int 3 & info [ "msbs" ] ~docv:"N" ~doc:"MSBs per datacenter.")

let racks =
  Arg.(value & opt int 4 & info [ "racks" ] ~docv:"N" ~doc:"Racks per MSB.")

let servers =
  Arg.(value & opt int 6 & info [ "servers" ] ~docv:"N" ~doc:"Servers per rack.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let utilization =
  Arg.(
    value
    & opt float 0.45
    & info [ "utilization" ] ~docv:"FRAC" ~doc:"Target capacity utilization of the request set.")

let make_region ~dcs ~msbs ~racks ~servers ~seed =
  Generator.generate
    {
      Generator.name = "cli-region";
      num_dcs = dcs;
      msbs_per_dc = msbs;
      racks_per_msb = racks;
      servers_per_rack = servers;
      seed;
    }

let make_scenario region ~seed ~utilization =
  let rng = Ras_stats.Rng.create seed in
  Ras_workload.Request_gen.scenario rng ~region ~services:Service.default_catalog
    ~target_utilization:utilization

(* One round of the continuous loop, without containers: the requests
   registered, solved and the plan applied by [System]. *)
let solved_system region requests solver =
  let config = { Ras.System.default_config with Ras.System.solver; job_fill_fraction = 0.0 } in
  let sys = Ras.System.create ~config (Broker.create region) in
  List.iter (Ras.System.add_request sys) requests;
  (sys, Ras.System.solve_now sys)

(* ---------- region ---------- *)

let region_cmd =
  let run dcs msbs racks servers seed =
    let region = make_region ~dcs ~msbs ~racks ~servers ~seed in
    Format.printf "%a@." Region.pp_summary region;
    for m = 0 to region.Region.num_msbs - 1 do
      let mix = Region.hw_mix_of_msb region m in
      Format.printf "MSB %2d (DC%d): %s@." m region.Region.msb_dc.(m)
        (String.concat ", "
           (List.map
              (fun (hw, c) -> Printf.sprintf "%s x%d" hw.Ras_topology.Hardware.code c)
              mix))
    done
  in
  Cmd.v
    (Cmd.info "region" ~doc:"Generate a synthetic region and print its hardware layout.")
    Term.(const run $ dcs $ msbs $ racks $ servers $ seed)

(* ---------- solve ---------- *)

let solve_cmd =
  let nodes =
    Arg.(value & opt int 300 & info [ "nodes" ] ~docv:"N" ~doc:"Branch-and-bound node limit (0 = heuristic only).")
  in
  let time_limit =
    Arg.(value & opt float 10.0 & info [ "time-limit" ] ~docv:"SEC" ~doc:"MIP time limit per phase.")
  in
  let run dcs msbs racks servers seed utilization nodes time_limit =
    let region = make_region ~dcs ~msbs ~racks ~servers ~seed in
    let requests = make_scenario region ~seed:(seed + 10) ~utilization in
    Printf.printf "scenario: %d capacity requests\n" (List.length requests);
    let sys, stats =
      solved_system region requests
        {
          Ras.Async_solver.default_params with
          Ras.Async_solver.node_limit = nodes;
          phase1_time_limit_s = time_limit;
          phase2_time_limit_s = time_limit /. 2.0;
        }
    in
    print_string (Ras.Explain.solve_report stats);
    (match Ras.Explain.shadow_prices ~top:5 stats.Ras.Async_solver.phase1 with
    | [] -> ()
    | prices ->
      print_endline "most binding constraints (root-LP shadow prices):";
      List.iter (fun (name, p) -> Printf.printf "  %-24s %.1f per unit\n" name p) prices);
    let snapshot = Ras.System.snapshot sys in
    let reservations = snapshot.Ras.Snapshot.reservations in
    List.iter
      (fun res ->
        if not (Ras.Reservation.is_buffer res) then
          print_string (Ras.Explain.reservation_report snapshot res))
      reservations;
    List.iter
      (fun (rid, short) ->
        match List.find_opt (fun r -> r.Ras.Reservation.id = rid) reservations with
        | Some res -> print_endline (Ras.Explain.shortfall_reason snapshot res ~shortfall:short)
        | None -> ())
      stats.Ras.Async_solver.shortfalls
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run one Async Solver pass and explain the result.")
    Term.(const run $ dcs $ msbs $ racks $ servers $ seed $ utilization $ nodes $ time_limit)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let days =
    Arg.(value & opt float 2.0 & info [ "days" ] ~docv:"DAYS" ~doc:"Simulated days of region time.")
  in
  let failures =
    Arg.(value & flag & info [ "failures" ] ~doc:"Inject the stochastic failure schedule.")
  in
  let run dcs msbs racks servers seed utilization days failures =
    let region = make_region ~dcs ~msbs ~racks ~servers ~seed in
    let broker = Broker.create region in
    let requests = make_scenario region ~seed:(seed + 10) ~utilization in
    let config =
      {
        Ras.System.default_config with
        Ras.System.solver =
          { Ras.Async_solver.default_params with Ras.Async_solver.node_limit = 0 };
      }
    in
    let sys = Ras.System.create ~config broker in
    List.iter (Ras.System.add_request sys) requests;
    if failures then begin
      let events =
        Failure_model.generate (Ras_stats.Rng.create (seed + 20)) region
          Failure_model.default_params ~horizon_days:days
      in
      Printf.printf "installing %d failure events\n%!" (List.length events);
      Ras.System.install_failures sys events
    end;
    Ras.System.start sys;
    let t0 = Unix.gettimeofday () in
    Ras.System.run sys ~until_h:(days *. 24.0);
    Printf.printf "simulated %.1f days in %.1fs wall clock (%d solves)\n\n" days
      (Unix.gettimeofday () -. t0)
      (Ras.System.solve_count sys);
    Format.printf "%a@." Ras_sim.Metrics.pp (Ras.System.metrics sys);
    Printf.printf "failure replacements: %d done, %d failed\n"
      (Ras.Online_mover.replacements_done (Ras.System.mover sys))
      (Ras.Online_mover.replacements_failed (Ras.System.mover sys))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the full RAS system under simulated region time.")
    Term.(const run $ dcs $ msbs $ racks $ servers $ seed $ utilization $ days $ failures)

(* ---------- drill ---------- *)

let drill_cmd =
  let msb = Arg.(value & opt int 0 & info [ "kill-msb" ] ~docv:"MSB" ~doc:"MSB index to fail.") in
  let run dcs msbs racks servers seed utilization msb =
    let region = make_region ~dcs ~msbs ~racks ~servers ~seed in
    let requests = make_scenario region ~seed:(seed + 10) ~utilization in
    let sys, stats = solved_system region requests Ras.Async_solver.default_params in
    let short = List.map fst stats.Ras.Async_solver.shortfalls in
    Printf.printf "killing MSB %d (%d servers)\n" msb
      (List.length (Region.servers_of_msb region msb));
    List.iter
      (fun (s : Region.server) ->
        Broker.mark_down (Ras.System.broker sys) s.Region.id Unavail.Correlated)
      (Region.servers_of_msb region msb);
    let snapshot = Ras.System.snapshot sys in
    List.iter
      (fun res ->
        if (not (Ras.Reservation.is_buffer res)) && not (List.mem res.Ras.Reservation.id short)
        then begin
          let left = Ras.Snapshot.current_rru snapshot res in
          Printf.printf "%-24s %.1f/%.1f RRU surviving  %s\n" res.Ras.Reservation.name left
            res.Ras.Reservation.capacity_rru
            (if left >= res.Ras.Reservation.capacity_rru -. 1e-6 then "OK"
             else if res.Ras.Reservation.embedded_buffer then "** GUARANTEE BROKEN **"
             else "(no embedded buffer requested)")
        end)
      snapshot.Ras.Snapshot.reservations
  in
  Cmd.v
    (Cmd.info "drill" ~doc:"Fail a whole MSB and audit every reservation's guarantee.")
    Term.(const run $ dcs $ msbs $ racks $ servers $ seed $ utilization $ msb)

(* ---------- submit (portal admission) ---------- *)

let submit_cmd =
  let rru =
    Arg.(value & opt float 20.0 & info [ "rru" ] ~docv:"RRU" ~doc:"Requested capacity in RRUs.")
  in
  let profile =
    Arg.(
      value
      & opt string "web"
      & info [ "profile" ] ~docv:"NAME"
          ~doc:"Service profile: web, feed, datastore, cache, ml, presto, video, generic.")
  in
  let min_gen =
    Arg.(value & opt int 1 & info [ "min-gen" ] ~docv:"G" ~doc:"Oldest acceptable CPU generation.")
  in
  let run dcs msbs racks servers seed utilization rru profile min_gen =
    let region = make_region ~dcs ~msbs ~racks ~servers ~seed in
    let broker = Broker.create region in
    (* pre-commit the scenario's requests so admission sees a loaded region *)
    let existing = make_scenario region ~seed:(seed + 10) ~utilization in
    let portal = Ras.Portal.create () in
    let snapshot = Ras.Snapshot.take broker [] in
    List.iter (fun r -> ignore (Ras.Portal.submit portal snapshot r)) existing;
    let p =
      match profile with
      | "web" -> Service.Web
      | "feed" -> Service.Feed1
      | "datastore" -> Service.Data_store
      | "cache" -> Service.Cache
      | "ml" -> Service.Ml_training
      | "presto" -> Service.Presto_batch
      | "video" -> Service.Video_encoding
      | _ -> Service.Generic
    in
    let service =
      Service.make ~id:500 ~name:(Printf.sprintf "%s-cli" profile) ~profile:p
        ~min_generation:min_gen ()
    in
    let req = Ras_workload.Capacity_request.make ~id:500 ~service ~rru () in
    Printf.printf "region holds %d accepted requests; submitting %s for %.1f RRU...\n"
      (List.length (Ras.Portal.requests portal))
      service.Service.name rru;
    match Ras.Portal.submit portal snapshot req with
    | Ras.Portal.Accepted -> print_endline "ACCEPTED: the next solve will materialize it"
    | Ras.Portal.Rejected reason -> Printf.printf "REJECTED: %s\n" reason
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Validate a capacity request through the portal (paragraph 5.3).")
    Term.(const run $ dcs $ msbs $ racks $ servers $ seed $ utilization $ rru $ profile $ min_gen)

let () =
  let doc = "RAS reproduction: region-wide datacenter resource allocation" in
  let info = Cmd.info "ras_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ region_cmd; solve_cmd; simulate_cmd; drill_cmd; submit_cmd ]))
