(* One workload run: set the region up, then drive closed-loop rounds of
   tier-1 events, demand churn and one continuous-loop round, through the
   public API only ([Generator], [Broker], [Portal], [System]).  Nothing
   inside the libraries is instrumented: a traced run times public calls
   from outside and adds pure probes outside the timed windows. *)

module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Hardware = Ras_topology.Hardware
module Generator = Ras_topology.Generator
module Rng = Ras_stats.Rng
module Summary = Ras_stats.Summary
module Request_gen = Ras_workload.Request_gen
module Capacity_request = Ras_workload.Capacity_request
module Unavail = Ras_failures.Unavail
module Engine = Ras_sim.Engine
module Allocator = Ras_twine.Allocator
module Model = Ras_mip.Model
module Simplex = Ras_mip.Simplex
module System = Ras.System
module Portal = Ras.Portal
module Async_solver = Ras.Async_solver
module Phases = Ras.Phases
module Formulation = Ras.Formulation
module Online_mover = Ras.Online_mover
module Reactive = Ras.Reactive
module Reservation = Ras.Reservation
module Snapshot = Ras.Snapshot

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let now = Unix.gettimeofday

type env = {
  sys : System.t;
  portal : Portal.t;
  original : (int, float) Hashtbl.t;  (** request id -> size at first submission *)
  mutable next_id : int;  (** fresh request ids for re-submissions *)
}

(* As the solver-performance figures do: larger requests carry a rack
   spread goal, so phase 2 has reservations to refine. *)
let with_rack_limit (r : Capacity_request.t) =
  if r.Capacity_request.rru >= 5.0 then { r with Capacity_request.rack_spread_limit = Some 0.06 }
  else r

(* Admission against the current state, then hand-off to the loop. *)
let submit env trace ~scope ~id (req : Capacity_request.t) =
  let snap = System.snapshot env.sys in
  let decision, dt = Trace.timed (fun () -> Portal.submit env.portal snap req) in
  Trace.add trace ~scope ~id ~name:"portal.submit_us" ~src:'D' (dt *. 1e6);
  match decision with
  | Portal.Accepted ->
    let (), dt = Trace.timed (fun () -> System.add_request env.sys req) in
    Trace.add trace ~scope ~id ~name:"system.add_request_us" ~src:'D' (dt *. 1e6);
    true
  | Portal.Rejected _ ->
    Trace.add trace ~scope ~id ~name:"portal.rejected" ~src:'D' 1.0;
    false

(* Region, broker and system; admission of the workload's request
   scenario; the bring-up round on the empty region.  This is what
   [setup_s] times. *)
let setup (spec : Workloads.spec) trace =
  let region = Generator.generate spec.Workloads.region in
  let config =
    {
      System.default_config with
      System.solver = spec.Workloads.solver;
      job_fill_fraction = spec.Workloads.job_fill;
    }
  in
  let env =
    {
      sys = System.create ~config (Broker.create region);
      portal = Portal.create ();
      original = Hashtbl.create 32;
      next_id = 1000;
    }
  in
  let requests =
    Request_gen.scenario (Rng.create Workloads.scenario_seed) ~region
      ~services:spec.Workloads.services ~target_utilization:0.45
  in
  List.iteri
    (fun i req ->
      let req = with_rack_limit req in
      if submit env trace ~scope:"setup" ~id:i req then
        Hashtbl.replace env.original req.Capacity_request.id req.Capacity_request.rru)
    requests;
  (env, System.solve_now env.sys)

(* ---- output checks (untimed) ---- *)

let check_round env (stats : Async_solver.stats) ~round =
  let p1 = stats.Async_solver.phase1 in
  (match Model.check_solution p1.Phases.compiled p1.Phases.solution with
  | Ok () -> ()
  | Error e -> fail "round %d: the phase-1 solution fails its model: %s" round e);
  let brk = System.broker env.sys and mv = System.mover env.sys in
  for id = 0 to Broker.num_servers brk - 1 do
    if
      Broker.available_at brk id
      && Option.is_none (Online_mover.home_of mv id)
      && Broker.current_code brk id <> Broker.target_code brk id
    then fail "round %d: available server %d is not on its target owner" round id
  done;
  let snap = System.snapshot env.sys in
  List.iter
    (fun res ->
      if not (Reservation.is_buffer res) then begin
        let rid = res.Reservation.id in
        let short = Option.value ~default:0.0 (List.assoc_opt rid stats.Async_solver.shortfalls) in
        let have = Snapshot.current_rru snap res in
        let need = res.Reservation.capacity_rru in
        if have +. short < need -. (1e-6 *. Float.max 1.0 need) then
          fail "round %d: reservation %d holds %.3f RRU + %.3f shortfall < %.3f" round rid have
            short need
      end)
    (System.reservations env.sys)

(* ---- tier-1 events ---- *)

let is_reserved brk id =
  match Broker.current_owner brk id with
  | Broker.Reservation _ -> true
  | Broker.Free | Broker.Shared_buffer | Broker.Elastic _ -> false

(* Healthy servers owned by a guaranteed reservation: the victim and flip
   pool of one round (an untimed column scan). *)
let reserved_pool brk =
  let acc = ref [] in
  for id = Broker.num_servers brk - 1 downto 0 do
    if Broker.healthy_at brk id && is_reserved brk id then acc := id :: !acc
  done;
  if !acc = [] then fail "no healthy reserved server";
  Array.of_list !acc

let reservation_of env id =
  let owner = Broker.current_owner (System.broker env.sys) id in
  List.find (fun r -> Broker.Reservation r.Reservation.id = owner) (System.reservations env.sys)

let hw_index env id =
  (Broker.region (System.broker env.sys)).Region.servers.(id).Region.hw.Hardware.index

(* What tier-1 may bind, counted per hardware subtype from the broker's
   columns and the lending overlay: healthy idle shared-buffer servers and
   healthy servers on loan from the buffer.  The count never asks the
   replacement search under test, so a victim it covers that still gets no
   replacement is a failure of the program. *)
type spares = {
  per_hw : int array;
  mutable since : int;  (** events since the count; each binds at most one spare *)
}

let count_spares env spares =
  let brk = System.broker env.sys and mv = System.mover env.sys in
  let servers = (Broker.region brk).Region.servers in
  Array.fill spares.per_hw 0 (Array.length spares.per_hw) 0;
  spares.since <- 0;
  for id = 0 to Broker.num_servers brk - 1 do
    if Broker.healthy_at brk id then begin
      let spare =
        match Broker.current_owner brk id with
        | Broker.Shared_buffer -> not (Broker.in_use_at brk id)
        | Broker.Elastic _ -> Online_mover.home_of mv id = Some Broker.Shared_buffer
        | Broker.Free | Broker.Reservation _ -> false
      in
      if spare then begin
        let h = servers.(id).Region.hw.Hardware.index in
        spares.per_hw.(h) <- spares.per_hw.(h) + 1
      end
    end
  done

let usable_spares spares res =
  let n = ref 0 in
  Array.iteri
    (fun h hw -> if res.Reservation.rru_of hw > 0.0 then n := !n + spares.per_hw.(h))
    Hardware.catalog;
  !n

(* Uniform over the round's pool, redrawing servers that failed or changed
   owner since the scan, and servers no spare could replace: at these
   region sizes some reservations accept only subtypes the buffer holds
   none of, and such a loss is §5.4's "failures exceeding planned limits",
   not the tier-1 promise.  Spares are recounted only when the count, less
   one per event since, cannot vouch for the victim; healed victims only
   add spares.  Returns the victim and the number of uncovered draws. *)
let draw_victim env rng spares pool =
  let brk = System.broker env.sys in
  let rec go tries uncovered =
    if tries = 0 then fail "no healthy reserved server a spare could replace";
    let id = pool.(Rng.int rng (Array.length pool)) in
    if not (Broker.healthy_at brk id && is_reserved brk id) then go (tries - 1) uncovered
    else begin
      let res = reservation_of env id in
      if usable_spares spares res <= spares.since && spares.since > 0 then count_spares env spares;
      if usable_spares spares res > spares.since then (id, uncovered)
      else go (tries - 1) (uncovered + 1)
    end
  in
  go 1000 0

(* [mark_down], then one simulated minute, so the mover's scheduled repair
   runs inside the timed window.  Returns the restore time and whether a
   replacement was bound.  Traced, the two replacement searches are probed
   first, on the state the repair will see. *)
let tier1_event env trace ~id ~victim =
  let brk = System.broker env.sys and mv = System.mover env.sys in
  let rx = System.reactive env.sys in
  let mover_probe_us =
    if not (Trace.enabled trace) then 0.0
    else begin
      let res = reservation_of env victim and failed_hw = hw_index env victim in
      let _, dm = Trace.timed (fun () -> Online_mover.find_replacement mv res ~failed_hw) in
      let _, dr = Trace.timed (fun () -> Reactive.find_replacement rx res ~failed_hw) in
      Trace.add trace ~scope:"event" ~id ~name:"online_mover.find_replacement_us" ~src:'X'
        (dm *. 1e6);
      Trace.add trace ~scope:"event" ~id ~name:"reactive.find_replacement_us" ~src:'X'
        (dr *. 1e6);
      dm *. 1e6
    end
  in
  let c0 = Reactive.counters rx in
  let done0 = Online_mover.replacements_done mv in
  let failed0 = Online_mover.replacements_failed mv in
  let eng = System.engine env.sys in
  let t0 = now () in
  Broker.mark_down brk victim Unavail.Unplanned_sw;
  System.run env.sys ~until_h:(Engine.now eng +. (1.0 /. 60.0));
  let dt = now () -. t0 in
  let bound = Online_mover.replacements_done mv - done0 in
  let missed = Online_mover.replacements_failed mv - failed0 in
  if bound + missed <> 1 then
    fail "event %d: server %d got %d replacements and %d failures" id victim bound missed;
  let c1 = Reactive.counters rx in
  let us = dt *. 1e6 in
  Trace.add trace ~scope:"event" ~id ~name:"tier1.restore_us" ~src:'D' ~start:t0 us;
  Trace.add trace ~scope:"event" ~id ~name:"tier1.other_us" ~parent:"tier1.restore_us" ~src:'R'
    (us -. mover_probe_us);
  Trace.add trace ~scope:"event" ~id ~name:"reactive.visited_classes" ~src:'P'
    (float_of_int (c1.Reactive.visited_classes - c0.Reactive.visited_classes));
  Trace.add trace ~scope:"event" ~id ~name:"reactive.visited_servers" ~src:'P'
    (float_of_int (c1.Reactive.visited_servers - c0.Reactive.visited_servers));
  (dt, missed = 0)

(* ---- demand churn ---- *)

let flip_in_use rng brk pool =
  for _ = 1 to Broker.num_servers brk / 100 do
    let id = pool.(Rng.int rng (Array.length pool)) in
    if is_reserved brk id then Broker.set_in_use brk id (Rng.float rng 1.0 < 0.7)
  done

(* A random request is resized to [1 +/- spread] times its first size
   (so sizes stay stationary), admitted against a fresh snapshot, and
   handed to the System when accepted.  Returns the change's wall time. *)
let resize env trace rng ~spread ~id =
  let reqs = Array.of_list (Portal.requests env.portal) in
  let req = reqs.(Rng.int rng (Array.length reqs)) in
  let base = Hashtbl.find env.original req.Capacity_request.id in
  let f = 1.0 +. (spread *. ((2.0 *. Rng.float rng 1.0) -. 1.0)) in
  let req = { req with Capacity_request.rru = base *. f } in
  let t0 = now () in
  let snap = System.snapshot env.sys in
  let t1 = now () in
  let decision = Portal.modify env.portal snap req in
  let t2 = now () in
  (match decision with
  | Portal.Accepted -> System.resize_request env.sys req
  | Portal.Rejected _ -> ());
  let t3 = now () in
  Trace.add trace ~scope:"change" ~id ~name:"portal.modify_us" ~src:'D' ~start:t1
    ((t2 -. t1) *. 1e6);
  (match decision with
  | Portal.Accepted ->
    Trace.add trace ~scope:"change" ~id ~name:"system.resize_request_us" ~src:'D' ~start:t2
      ((t3 -. t2) *. 1e6)
  | Portal.Rejected _ ->
    Trace.add trace ~scope:"change" ~id ~name:"portal.rejected" ~src:'D' 1.0);
  t3 -. t0

(* The smallest request the portal would admit again is deleted and
   submitted under a fresh id: its servers go back to the free pool now and
   are bound again by the next round.  Admissibility is probed first,
   untimed, by modifying each request to its own size: at 0.45 utilization
   the portal's conservative admission already counts some hardware groups
   as fully committed, and a rejected re-submission would drop the service
   for good.  [None] when no request is admissible. *)
let resubmit env trace ~id =
  let snap = System.snapshot env.sys in
  let admissible =
    List.filter
      (fun r -> Portal.modify env.portal snap r = Portal.Accepted)
      (Portal.requests env.portal)
  in
  match
    List.sort
      (fun (a : Capacity_request.t) b -> compare a.Capacity_request.rru b.Capacity_request.rru)
      admissible
  with
  | [] -> None
  | old :: _ ->
    let oid = old.Capacity_request.id in
    let req = { old with Capacity_request.id = env.next_id } in
    env.next_id <- env.next_id + 1;
    Hashtbl.replace env.original req.Capacity_request.id (Hashtbl.find env.original oid);
    Hashtbl.remove env.original oid;
    let t0 = now () in
    ignore (Portal.delete env.portal oid);
    let t1 = now () in
    System.remove_reservation env.sys oid;
    let t2 = now () in
    let accepted = submit env trace ~scope:"change" ~id req in
    let t3 = now () in
    if not accepted then
      fail "the portal rejected re-submitting request %d as %d" oid req.Capacity_request.id;
    Trace.add trace ~scope:"change" ~id ~name:"system.remove_reservation_us" ~src:'D' ~start:t1
      ((t2 -. t1) *. 1e6);
    Some (t3 -. t0)

(* ---- one continuous-loop round ---- *)

let allocator_totals env =
  List.fold_left
    (fun (placed, pending) res ->
      match System.allocator env.sys res.Reservation.id with
      | Some a -> (placed + Allocator.placed_containers a, pending + Allocator.pending_containers a)
      | None -> (placed, pending))
    (0, 0) (System.reservations env.sys)

(* Program-reported numbers of the round, then the pure probes, run after
   the timed window on the round's own inputs: the root LP on the compiled
   phase-1 model, LP rounding + repair, and decode + concretize per phase.
   The residuals subtract the measured children from their parent. *)
let trace_round env trace (params : Async_solver.params) ~id ~start ~round_s ~snapshot_s
    (stats : Async_solver.stats) =
  let add ?parent name src v = Trace.add trace ~scope:"round" ~id ~name ?parent ~src v in
  let addi ?parent name src v = add ?parent name src (float_of_int v) in
  let p1 = stats.Async_solver.phase1 in
  let phases = p1 :: Option.to_list stats.Async_solver.phase2 in
  let f1 = p1.Phases.formulation in
  Trace.add trace ~scope:"round" ~id ~name:"round.wall_s" ~src:'D' ~start round_s;
  add "snapshot.take_s" 'X' ~parent:"round.wall_s" snapshot_s;
  addi "symmetry.classes" 'P' (Ras.Symmetry.num_classes f1.Formulation.symmetry);
  addi "model.nvars" 'P' p1.Phases.compiled.Model.nvars;
  addi "model.nrows" 'P' p1.Phases.compiled.Model.nrows;
  let t = p1.Phases.timing in
  add "phases.ras_build_s" 'P' ~parent:"async_solver.solve_s" t.Phases.ras_build_s;
  add "phases.solver_build_s" 'P' ~parent:"async_solver.solve_s" t.Phases.solver_build_s;
  add "phases.initial_state_s" 'P' ~parent:"async_solver.solve_s" t.Phases.initial_state_s;
  add "phases.mip_s" 'P' ~parent:"async_solver.solve_s" t.Phases.mip_s;
  add "phases.phase2_s" 'P' ~parent:"async_solver.solve_s"
    (match stats.Async_solver.phase2 with Some p2 -> Phases.total_s p2.Phases.timing | None -> 0.0);
  (match Trace.timed (fun () -> Simplex.solve p1.Phases.compiled) with
  | Simplex.Optimal { x; iterations; _ }, lp_s ->
    add "simplex.root_lp_s" 'X' ~parent:"phases.initial_state_s" lp_s;
    addi "simplex.root_lp_pivots" 'X' iterations;
    let _, rr = Trace.timed (fun () -> Formulation.repair f1 (Formulation.round_lp f1 x)) in
    add "formulation.round_repair_s" 'X' ~parent:"phases.initial_state_s" rr
  | (Simplex.Infeasible _ | Simplex.Unbounded | Simplex.Iteration_limit _), _ ->
    fail "round %d: the root-LP probe did not reach optimality" id);
  addi "branch_bound.nodes" 'P' stats.Async_solver.solver_nodes;
  addi "branch_bound.lp_pivots" 'P' stats.Async_solver.solver_lp_iterations;
  addi "branch_bound.dual_pivots" 'P' stats.Async_solver.solver_dual_pivots;
  addi "branch_bound.warm_nodes" 'P' stats.Async_solver.solver_warm_starts;
  let limited (p : Phases.result) limit = p.Phases.timing.Phases.mip_s >= 0.9 *. limit in
  addi "branch_bound.time_limited" 'P'
    (Bool.to_int (limited p1 params.Async_solver.phase1_time_limit_s)
    + Option.fold ~none:0
        ~some:(fun p2 -> Bool.to_int (limited p2 params.Async_solver.phase2_time_limit_s))
        stats.Async_solver.phase2);
  let concretize_s =
    List.fold_left
      (fun acc (p : Phases.result) ->
        let f = p.Phases.formulation in
        let _, dt =
          Trace.timed (fun () -> Ras.Concretize.plan f (Formulation.decode f p.Phases.solution))
        in
        acc +. dt)
      0.0 phases
  in
  add "concretize.plan_s" 'X' ~parent:"async_solver.solve_s" concretize_s;
  let plan = stats.Async_solver.plan in
  addi "concretize.targets" 'P' (List.length plan.Ras.Concretize.targets);
  addi "concretize.moves" 'P' (List.length plan.Ras.Concretize.moves);
  let solve_s = stats.Async_solver.duration_s in
  add "async_solver.solve_s" 'P' ~parent:"round.wall_s" solve_s;
  add "async_solver.merge_s" 'R' ~parent:"async_solver.solve_s"
    (List.fold_left (fun acc p -> acc -. Phases.total_s p.Phases.timing) solve_s phases
    -. concretize_s);
  add "system.apply_s" 'R' ~parent:"round.wall_s" (round_s -. snapshot_s -. solve_s);
  addi "round.moves_in_use" 'P' stats.Async_solver.moves_in_use;
  add "round.shortfall_rru" 'P'
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 stats.Async_solver.shortfalls);
  addi "online_mover.loans" 'P' (Online_mover.loans_outstanding (System.mover env.sys));
  let placed, pending = allocator_totals env in
  addi "twine.placed_containers" 'P' placed;
  addi "twine.pending_containers" 'P' pending

(* [System.solve_now], timed.  [None] when the round raised.  A traced
   round starts from a fully collected heap: otherwise the garbage of the
   probes would be collected inside the round's window, and a traced round
   would pay for the probes it follows.  An untraced round gets no such
   help, so that its time and the run's memory are the program's own. *)
let round env trace params ~id =
  let snapshot_s =
    if Trace.enabled trace then begin
      let _, dt = Trace.timed (fun () -> System.snapshot env.sys) in
      Gc.full_major ();
      dt
    end
    else 0.0
  in
  let rx = System.reactive env.sys in
  let c0 = Reactive.counters rx and g0 = Gc.quick_stat () in
  let start = now () in
  let result = try Ok (System.solve_now env.sys) with e -> Error e in
  let round_s = now () -. start in
  match result with
  | Error e ->
    Printf.eprintf "round %d raised %s\n%!" id (Printexc.to_string e);
    None
  | Ok stats ->
    if Trace.enabled trace then begin
      let g1 = Gc.quick_stat () and c1 = Reactive.counters rx in
      let add name v = Trace.add trace ~scope:"round" ~id ~name ~src:'P' v in
      add "gc.minor_mwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
      add "gc.promoted_mwords" ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
      add "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      add "gc.heap_mb" (float_of_int (g1.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0);
      add "reactive.index_updates"
        (float_of_int (c1.Reactive.index_updates - c0.Reactive.index_updates));
      trace_round env trace params ~id ~start ~round_s ~snapshot_s stats
    end;
    check_round env stats ~round:id;
    Some (round_s, stats)

(* ---- the run ---- *)

type outcome = {
  attempted : int;
  failed : int;
  end_to_end : (string * float * string) list;  (** name, value, unit *)
  trace : Trace.t;
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> fail "no VmHWM in /proc/self/status"
      in
      find ())

let percentile name s p =
  if Summary.count s = 0 then fail "no %s sample" name;
  Summary.percentile s p

type samples = {
  setup_s : Summary.t;
  round_s : Summary.t;
  restore_p50_us : Summary.t;  (** one median per round *)
  restore_p90_us : Summary.t;  (** one p90 per round *)
  change_ms : Summary.t;
  mutable attempted : int;  (** tier-1 events and rounds *)
  mutable failed : int;  (** events with no replacement and rounds that raised *)
  mutable events : int;
  mutable changes : int;
  mutable uncovered : int;  (** victims redrawn because no spare could replace them *)
  mutable need_rru : float;  (** guaranteed capacity the measured rounds had to bind *)
  mutable shortfall_rru : float;  (** of it, what they left unmet *)
}

let count samples ok =
  samples.attempted <- samples.attempted + 1;
  if not ok then samples.failed <- samples.failed + 1

(* The machine's speed now (see [Yardstick]), measured outside every timed
   window. *)
let yardstick trace ~scope ~id =
  let y = Yardstick.measure () in
  Trace.add trace ~scope ~id ~name:"machine.yardstick_ms" ~src:'D' (y *. 1e3);
  y

(* One epoch: a fresh system (the timed set-up), then [rounds] closed-loop
   rounds on it.  A rejected demand change is an admission decision, not a
   failure; it is reported as portal.rejected.  The end-to-end samples are
   scaled by yardsticks taken around each timed phase: the set-up, a
   round's events, and its changes together with its solve. *)
let epoch (spec : Workloads.spec) trace samples ~failures ~demand ~rounds ~events ~first_round =
  let before = yardstick trace ~scope:"setup" ~id:first_round in
  let (env, bringup), dt = Trace.timed (fun () -> setup spec trace) in
  let after = yardstick trace ~scope:"setup" ~id:first_round in
  Summary.add samples.setup_s (Yardstick.scale ~before ~after dt);
  check_round env bringup ~round:0;
  let brk = System.broker env.sys in
  let down = Queue.create () in
  let spares = { per_hw = Array.make (Array.length Hardware.catalog) 0; since = 0 } in
  for r = first_round to first_round + rounds - 1 do
    Queue.iter (fun id -> Broker.mark_up brk id) down;
    Queue.clear down;
    let pool = reserved_pool brk in
    count_spares env spares;
    let y0 = yardstick trace ~scope:"round" ~id:r in
    let changes = ref [] in
    let change dt =
      samples.changes <- samples.changes + 1;
      changes := dt :: !changes
    in
    let this_round = Summary.create () in
    for _ = 1 to events do
      if Queue.length down >= spec.Workloads.max_down then Broker.mark_up brk (Queue.pop down);
      let victim, uncovered = draw_victim env failures spares pool in
      samples.uncovered <- samples.uncovered + uncovered;
      spares.since <- spares.since + 1;
      Queue.push victim down;
      samples.events <- samples.events + 1;
      let dt, ok = tier1_event env trace ~id:samples.events ~victim in
      Summary.add this_round (dt *. 1e6);
      count samples ok
    done;
    let y1 = yardstick trace ~scope:"round" ~id:r in
    let scale = Yardstick.scale ~before:y0 ~after:y1 in
    Summary.add samples.restore_p50_us (scale (Summary.percentile this_round 50.0));
    Summary.add samples.restore_p90_us (scale (Summary.percentile this_round 90.0));
    if spec.Workloads.flips then flip_in_use demand brk pool;
    for _ = 1 to spec.Workloads.resizes do
      change
        (resize env trace demand ~spread:spec.Workloads.resize_spread ~id:(samples.changes + 1))
    done;
    for _ = 1 to spec.Workloads.resubmits do
      Option.iter change (resubmit env trace ~id:(samples.changes + 1))
    done;
    let result = round env trace spec.Workloads.solver ~id:r in
    let scale = Yardstick.scale ~before:y1 ~after:(yardstick trace ~scope:"round" ~id:r) in
    List.iter (fun dt -> Summary.add samples.change_ms (scale dt *. 1e3)) !changes;
    match result with
    | Some (dt, stats) ->
      Summary.add samples.round_s (scale dt);
      List.iter
        (fun res ->
          if not (Reservation.is_buffer res) then
            samples.need_rru <- samples.need_rru +. res.Reservation.capacity_rru)
        (System.reservations env.sys);
      samples.shortfall_rru <-
        List.fold_left (fun acc (_, s) -> acc +. s) samples.shortfall_rru
          stats.Async_solver.shortfalls;
      count samples true
    | None -> count samples false
  done

(* A run is [epochs] epochs, each a fresh system with a few rounds, rather
   than one long-lived system: [System] keeps every round's statistics, so
   its heap and its round time grow round after round, and the median of a
   long run would depend on how long it ran.  The number of rounds comes
   from [seconds] and the workload's round budget, not from a clock, so
   every run of a workload does the same work. *)
let run (spec : Workloads.spec) ~seed ~seconds ~traced ~smoke =
  let trace = Trace.create ~enabled:traced in
  let epochs = if smoke then 1 else 3 in
  let rounds, events =
    if smoke then (2, 10)
    else
      ( Int.max 2
          (int_of_float
             (Float.round (seconds /. (float_of_int epochs *. spec.Workloads.round_budget_s)))),
        spec.Workloads.events )
  in
  let samples =
    {
      setup_s = Summary.create ();
      round_s = Summary.create ();
      restore_p50_us = Summary.create ();
      restore_p90_us = Summary.create ();
      change_ms = Summary.create ();
      attempted = 0;
      failed = 0;
      events = 0;
      changes = 0;
      uncovered = 0;
      need_rru = 0.0;
      shortfall_rru = 0.0;
    }
  in
  (* the seed draws only the failures; see [Workloads.demand_seed] *)
  let failures = Rng.create seed and demand = Rng.create Workloads.demand_seed in
  for e = 0 to epochs - 1 do
    (* the previous epoch's system is garbage by now *)
    Gc.compact ();
    epoch spec trace samples ~failures ~demand ~rounds ~events ~first_round:((e * rounds) + 1)
  done;
  Trace.add trace ~scope:"run" ~id:0 ~name:"tier1.uncovered_draws" ~src:'D'
    (float_of_int samples.uncovered);
  {
    attempted = samples.attempted;
    failed = samples.failed;
    end_to_end =
      [
        ("setup_s", percentile "setup" samples.setup_s 50.0, "s");
        ("round_s.p50", percentile "round" samples.round_s 50.0, "s");
        (* a median and a tail per round, then the median round: rounds
           whose state made every event slow move them little *)
        ("restore_us.p50", percentile "restore" samples.restore_p50_us 50.0, "us");
        ("restore_us.p90", percentile "restore" samples.restore_p90_us 50.0, "us");
        ("change_ms.p50", percentile "change" samples.change_ms 50.0, "ms");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("capacity_met", 1.0 -. (samples.shortfall_rru /. samples.need_rru), "ratio");
      ];
    trace;
  }

(* ---- per-layer aggregation of a traced run ---- *)

type agg = Median | Sum | Max

(* Name, unit and how the run's samples combine: per-round and per-event
   quantities report their median; counts that are 0 in most rounds, such
   as in-use moves, shortfall and rejections, their total. *)
let per_layer =
  [
    ("round.wall_s", "s", Median);
    ("snapshot.take_s", "s", Median);
    ("symmetry.classes", "count", Median);
    ("model.nvars", "count", Median);
    ("model.nrows", "count", Median);
    ("phases.ras_build_s", "s", Median);
    ("phases.solver_build_s", "s", Median);
    ("phases.initial_state_s", "s", Median);
    ("phases.mip_s", "s", Median);
    ("phases.phase2_s", "s", Median);
    ("simplex.root_lp_s", "s", Median);
    ("simplex.root_lp_pivots", "count", Median);
    ("formulation.round_repair_s", "s", Median);
    ("branch_bound.nodes", "count", Median);
    ("branch_bound.lp_pivots", "count", Median);
    ("branch_bound.dual_pivots", "count", Median);
    ("branch_bound.warm_nodes", "count", Median);
    ("branch_bound.time_limited", "count", Sum);
    ("concretize.plan_s", "s", Median);
    ("concretize.targets", "count", Median);
    ("concretize.moves", "count", Median);
    ("async_solver.solve_s", "s", Median);
    ("async_solver.merge_s", "s", Median);
    ("system.apply_s", "s", Median);
    ("round.moves_in_use", "count", Sum);
    ("round.shortfall_rru", "RRU", Sum);
    ("reactive.index_updates", "count", Median);
    ("online_mover.loans", "count", Median);
    ("twine.placed_containers", "count", Median);
    ("twine.pending_containers", "count", Median);
    ("gc.minor_mwords", "Mwords", Median);
    ("gc.promoted_mwords", "Mwords", Median);
    ("gc.major_collections", "count", Median);
    ("gc.heap_mb", "MB", Max);
    ("tier1.restore_us", "us", Median);
    ("tier1.other_us", "us", Median);
    ("tier1.uncovered_draws", "count", Sum);
    ("online_mover.find_replacement_us", "us", Median);
    ("reactive.find_replacement_us", "us", Median);
    ("reactive.visited_classes", "count", Median);
    ("reactive.visited_servers", "count", Median);
    ("portal.submit_us", "us", Median);
    ("portal.modify_us", "us", Median);
    ("portal.rejected", "count", Sum);
    ("system.add_request_us", "us", Median);
    ("system.resize_request_us", "us", Median);
    ("system.remove_reservation_us", "us", Median);
    ("machine.yardstick_ms", "ms", Median);
  ]

let layer_metrics trace =
  List.map
    (fun (name, unit, agg) ->
      let vs = Trace.values trace name in
      let v =
        match (agg, vs) with
        | (Sum | Max), [] -> 0.0
        | Median, [] -> fail "no %s sample in the traced run" name
        | Median, _ ->
          let s = Summary.create () in
          Summary.add_list s vs;
          Summary.percentile s 50.0
        | Sum, _ -> List.fold_left ( +. ) 0.0 vs
        | Max, _ -> List.fold_left Float.max neg_infinity vs
      in
      (name, v, unit))
    per_layer
