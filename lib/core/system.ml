module Broker = Ras_broker.Broker
module Region = Ras_topology.Region
module Engine = Ras_sim.Engine
module Metrics = Ras_sim.Metrics
module Allocator = Ras_twine.Allocator
module Job = Ras_twine.Job
module Power = Ras_workload.Power
module Traffic = Ras_workload.Traffic
module Capacity_request = Ras_workload.Capacity_request

type config = {
  solver : Async_solver.params;
  shared_buffer_fraction : float;
  job_fill_fraction : float;
}

let default_config =
  { solver = Async_solver.default_params; shared_buffer_fraction = 0.02; job_fill_fraction = 0.8 }

(* hourly solves, as in production, and hourly metric samples *)
let solve_period_h = 1.0
let metrics_period_h = 1.0

(* the elastic reservation idle shared-buffer servers are lent to *)
let elastic_id = 9000

type t = {
  config : config;
  eng : Engine.t;
  brk : Broker.t;
  mv : Online_mover.t;
  mtr : Metrics.t;
  mutable guaranteed : Reservation.t list;  (* newest first *)
  mutable buffers : Reservation.t list;
  allocators : (int, Allocator.t) Hashtbl.t;
  requests : (int, Capacity_request.t) Hashtbl.t;
  mutable next_job_id : int;
  mutable solve_count : int;
  mutable moves_in_use_acc : int;
  mutable moves_unused_acc : int;
  mutable last_replacements : int;
}

let engine t = t.eng
let broker t = t.brk
let metrics t = t.mtr
let mover t = t.mv
let reactive t = Online_mover.reactive t.mv

let reservations t = List.rev t.guaranteed @ t.buffers

let create ?(config = default_config) brk =
  let eng = Engine.create () in
  let mv = Online_mover.create ~engine:eng brk in
  let buffers =
    Buffers.shared_buffer_reservations (Broker.region brk) ~fraction:config.shared_buffer_fraction
  in
  let t =
    {
      config;
      eng;
      brk;
      mv;
      mtr = Metrics.create ();
      guaranteed = [];
      buffers;
      allocators = Hashtbl.create 32;
      requests = Hashtbl.create 32;
      next_job_id = 1;
      solve_count = 0;
      moves_in_use_acc = 0;
      moves_unused_acc = 0;
      last_replacements = 0;
    }
  in
  Online_mover.set_reservations mv (reservations t);
  (* preemption: route to the allocator of the server's current owner *)
  Online_mover.on_preempt mv (fun id ->
      match Broker.current_owner brk id with
      | Broker.Reservation rid | Broker.Elastic rid -> (
        match Hashtbl.find_opt t.allocators rid with
        | Some alloc -> Allocator.evict_server alloc id
        | None -> ())
      | Broker.Free | Broker.Shared_buffer -> ());
  (* unavailability: every allocator in the table hears it (each touches
     only its own reservation's servers, so their order does not matter);
     a removed reservation's allocator leaves the table and stops hearing *)
  if config.job_fill_fraction > 0.0 then
    Broker.subscribe brk (fun ev ->
        Hashtbl.iter (fun _ alloc -> Allocator.on_event alloc ev) t.allocators);
  t

let add_request t req =
  let res = Reservation.of_request req in
  t.guaranteed <- res :: t.guaranteed;
  Hashtbl.replace t.requests res.Reservation.id req;
  Online_mover.set_reservations t.mv (reservations t);
  if t.config.job_fill_fraction > 0.0 && not (Hashtbl.mem t.allocators res.Reservation.id) then begin
    let alloc =
      Allocator.create t.brk ~reservation:res.Reservation.id ~rru_of:res.Reservation.rru_of
    in
    Hashtbl.replace t.allocators res.Reservation.id alloc
  end

(* Resizing keeps the reservation's identity and bound servers; only the
   spec changes, and the next solve grows or trims the binding. *)
let resize_request t req =
  let rid = req.Capacity_request.id in
  if Hashtbl.mem t.requests rid then begin
    Hashtbl.replace t.requests rid req;
    let res = Reservation.of_request req in
    t.guaranteed <-
      List.map (fun r -> if r.Reservation.id = rid then res else r) t.guaranteed;
    Online_mover.set_reservations t.mv (reservations t)
  end

let remove_reservation t rid =
  t.guaranteed <- List.filter (fun r -> r.Reservation.id <> rid) t.guaranteed;
  Hashtbl.remove t.requests rid;
  Hashtbl.remove t.allocators rid;
  Online_mover.set_reservations t.mv (reservations t);
  (* one pass over the owner column, no record per server *)
  let code = Broker.owner_code (Broker.Reservation rid) in
  for id = 0 to Broker.num_servers t.brk - 1 do
    if Broker.current_code t.brk id = code then begin
      Broker.move t.brk id Broker.Free;
      Broker.set_target t.brk id Broker.Free
    end
  done

(* New servers join as [Free]; the shared buffer is re-sized to the grown
   region, and the next solve fills it. *)
let extend_region t region =
  Broker.extend_region t.brk region;
  t.buffers <-
    Buffers.shared_buffer_reservations region ~fraction:t.config.shared_buffer_fraction;
  Online_mover.set_reservations t.mv (reservations t)

let install_failures t events = ignore (Health.install t.eng t.brk events)

let snapshot t =
  Snapshot.take t.brk (reservations t)

(* Fill each reservation's allocator with 1-RRU containers up to the
   configured fraction of its requested capacity, so that servers carry
   running containers and movement costs are real. *)
let fill_jobs t =
  if t.config.job_fill_fraction > 0.0 then
    List.iter
      (fun res ->
        match Hashtbl.find_opt t.allocators res.Reservation.id with
        | None -> ()
        | Some alloc ->
          ignore (Allocator.retry_pending alloc);
          let want = t.config.job_fill_fraction *. res.Reservation.capacity_rru in
          let have = Allocator.used_rru alloc in
          let missing = int_of_float (Float.floor (want -. have)) in
          if missing > 0 then begin
            let job =
              Job.make ~id:t.next_job_id ~reservation:res.Reservation.id ~replicas:missing
                ~rru_per_replica:1.0 ()
            in
            t.next_job_id <- t.next_job_id + 1;
            (* placement failure is fine: capacity may still be arriving *)
            ignore (Allocator.place_job alloc job)
          end)
      t.guaranteed

let solve_now t =
  let snap = snapshot t in
  let stats = Async_solver.solve ~params:t.config.solver snap in
  (* refresh the tier-1 repair policy with this round's phase-1 dual
     prices; a round without root-LP duals keeps the previous ones *)
  let p1 = stats.Async_solver.phase1 in
  Reactive.set_prices (reactive t) ~supply_rows:p1.Phases.formulation.Formulation.supply_rows
    ~duals:p1.Phases.lp_duals;
  (* a lent server the plan moves is moved like any other: the loan ends *)
  let apply = Online_mover.apply_plan t.mv stats.Async_solver.plan in
  t.moves_in_use_acc <- t.moves_in_use_acc + apply.Online_mover.moved_in_use;
  t.moves_unused_acc <- t.moves_unused_acc + apply.Online_mover.moved_unused;
  (* hand idle buffers to the elastic reservation *)
  ignore (Online_mover.lend_idle t.mv ~elastic_id ~max_servers:max_int);
  fill_jobs t;
  t.solve_count <- t.solve_count + 1;
  stats

let record_metrics t =
  let now = Engine.now t.eng in
  let snap = snapshot t in
  let frac = Buffers.embedded_buffer_fraction snap in
  if not (Float.is_nan frac) then Metrics.record t.mtr "max_msb_share" ~time:now frac;
  (* power, read off the owner and in-use columns *)
  let free = Broker.owner_code Broker.Free and shared = Broker.owner_code Broker.Shared_buffer in
  let usage_of (s : Region.server) =
    let id = s.Region.id in
    let code = Broker.current_code t.brk id in
    if code = free then Power.Idle_free
    else if code <> shared && Broker.in_use_at t.brk id then Power.Assigned_busy
    else Power.Assigned_idle
  in
  let draw = Power.msb_power (Broker.region t.brk) ~usage_of in
  Metrics.record t.mtr "power_variance" ~time:now (Power.normalized_variance draw);
  let capacity =
    Power.msb_power (Broker.region t.brk) ~usage_of:(fun _ -> Power.Assigned_busy)
  in
  Metrics.record t.mtr "power_headroom" ~time:now
    (Power.headroom ~capacity_watts:capacity ~draw_watts:draw);
  (* churn: replacements count as unused moves (they move idle buffer servers) *)
  let repl = Online_mover.replacements_done t.mv in
  let new_repl = repl - t.last_replacements in
  t.last_replacements <- repl;
  Metrics.record t.mtr "moves_in_use" ~time:now (float_of_int t.moves_in_use_acc);
  Metrics.record t.mtr "moves_unused" ~time:now (float_of_int (t.moves_unused_acc + new_repl));
  t.moves_in_use_acc <- 0;
  t.moves_unused_acc <- 0;
  (* cross-DC share for reservations with affinity *)
  List.iter
    (fun res ->
      match res.Reservation.dc_affinity with
      | (dc, _) :: _ ->
        let per_dc = Snapshot.rru_by_dc snap res in
        let frac =
          Traffic.cross_dc_working_fraction ~data_dc:dc ~capacity_per_dc:per_dc
            ~requested:res.Reservation.capacity_rru
        in
        if not (Float.is_nan frac) then
          Metrics.record t.mtr
            (Printf.sprintf "cross_dc:%s" res.Reservation.name)
            ~time:now frac
      | [] -> ())
    t.guaranteed;
  (* availability + pool state *)
  let down = ref 0 in
  for id = 0 to Broker.num_servers t.brk - 1 do
    if not (Broker.healthy_at t.brk id) then incr down
  done;
  Metrics.record t.mtr "unavailable_frac" ~time:now
    (float_of_int !down /. float_of_int (Broker.num_servers t.brk));
  Metrics.record t.mtr "free_servers" ~time:now
    (float_of_int (Broker.count_owner t.brk Broker.Free));
  Metrics.record t.mtr "loans_outstanding" ~time:now
    (float_of_int (Online_mover.loans_outstanding t.mv))

let start t =
  Engine.schedule_every t.eng ~first:0.0 ~period:solve_period_h (fun _ -> ignore (solve_now t));
  Engine.schedule_every t.eng ~first:(metrics_period_h /. 2.0) ~period:metrics_period_h (fun _ ->
      record_metrics t)

let run t ~until_h = Engine.run_until t.eng until_h

let solve_count t = t.solve_count

let allocator t rid = Hashtbl.find_opt t.allocators rid
