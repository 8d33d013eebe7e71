(* Shared scenario presets for the figure benchmarks.  Region sizes are
   scaled down from the paper's production regions; the solver-facing shape
   (MSB counts, hardware mixture skew, reservation counts) is preserved. *)

module Broker = Ras_broker.Broker
module Capacity_request = Ras_workload.Capacity_request
module Generator = Ras_topology.Generator
module Region = Ras_topology.Region
module Service = Ras_workload.Service
module Request_gen = Ras_workload.Request_gen
module Rng = Ras_stats.Rng

type preset = Small | Medium | Wide | Region_scale

let params_of = function
  | Small -> Generator.small_params
  | Region_scale ->
    (* the north-star preset: 36 MSBs, ~10^6 servers (§3.3.1 scale).
       Symmetry aggregation keeps the compiled model in the same variable
       regime as [Wide] despite ~600x more raw servers. *)
    Generator.region_scale_params
  | Medium ->
    {
      Generator.name = "region-medium";
      num_dcs = 3;
      msbs_per_dc = 6;
      racks_per_msb = 6;
      servers_per_rack = 8;
      seed = 3;
    }
  | Wide ->
    (* 36 MSBs like the production region of §3.3.1, so the perfect-spread
       bound is the paper's 2.8% *)
    {
      Generator.name = "region-wide";
      num_dcs = 4;
      msbs_per_dc = 9;
      racks_per_msb = 8;
      servers_per_rack = 4;
      seed = 4;
    }

let label_of = function
  | Small -> "small"
  | Medium -> "medium"
  | Wide -> "wide"
  | Region_scale -> "large"

let region_of preset = Generator.generate (params_of preset)

(* A trimmed service list keeps wide-region solves tractable while keeping
   the interesting constraints (generation-pinned, storage, ML affinity,
   Presto affinity). *)
let services_of = function
  | Small | Medium -> Service.default_catalog
  | Wide | Region_scale ->
    List.filter
      (fun s -> s.Service.id <= 12 || s.Service.id = 13 || s.Service.id = 17)
      Service.default_catalog

let requests_of ?(utilization = 0.45) ?(seed = 11) preset region =
  let rng = Rng.create seed in
  Request_gen.scenario rng ~region ~services:(services_of preset) ~target_utilization:utilization

(* Rack goals on every request of at least 5 RRU, so phase 2 has work. *)
let with_rack_limits requests =
  List.map
    (fun (r : Capacity_request.t) ->
      if r.Capacity_request.rru >= 5.0 then
        { r with Capacity_request.rack_spread_limit = Some 0.06 }
      else r)
    requests

(* Solver presets: [interactive] runs real branch-and-bound under a time
   budget (for the solver-quality figures); [simulation] is the
   heuristic-only mode used inside long-horizon simulations. *)
let interactive_solver =
  {
    Ras.Async_solver.default_params with
    Ras.Async_solver.phase1_time_limit_s = 8.0;
    phase2_time_limit_s = 3.0;
    node_limit = 150;
  }

let simulation_solver =
  { Ras.Async_solver.default_params with Ras.Async_solver.node_limit = 0 }

(* The multi-round figures run [System]'s loop on a 2% shared buffer.  They
   place no containers: their worlds set the in-use bits, if any. *)
let system ?(solver = simulation_solver) broker =
  Ras.System.create
    ~config:{ Ras.System.solver; shared_buffer_fraction = 0.02; job_fill_fraction = 0.0 }
    broker

(* Gradual enablement (Figs. 12 and 14): RAS takes over [requests] in list
   order while the rest stay where the legacy allocator put them.  [enable
   n] hands the system the first [n]; [legacy_moved ()] counts the servers
   the not-yet-enabled requests held when the ramp began and hold no
   longer.  RAS must leave them alone. *)
let ramp sys requests =
  let broker = Ras.System.broker sys in
  let legacy = Array.init (Broker.num_servers broker) (Broker.current_code broker) in
  let enabled = ref 0 in
  let enable n =
    List.iteri (fun i r -> if i >= !enabled && i < n then Ras.System.add_request sys r) requests;
    enabled := Int.max !enabled n
  in
  let legacy_moved () =
    let waiting =
      List.filteri (fun i _ -> i >= !enabled) requests
      |> List.map (fun (r : Capacity_request.t) ->
             Broker.owner_code (Broker.Reservation r.Capacity_request.id))
    in
    let moved = ref 0 in
    Array.iteri
      (fun id c -> if List.mem c waiting && Broker.current_code broker id <> c then incr moved)
      legacy;
    !moved
  in
  (enable, legacy_moved)

(* Global quick-mode flag: trims horizons and repetition counts so the whole
   suite runs in a couple of minutes. *)
let quick = ref false

let scaled n = if !quick then Stdlib.max 1 (n / 4) else n
