(* Table 1: the MIP notation.  There is no data to reproduce; instead we
   demonstrate that the implemented model instantiates every symbol of the
   table by building the formulation for a small region and printing the
   constructed rows grouped by the expression they implement. *)

let run () =
  Report.heading "Table 1: MIP model notation"
    ~paper:"notation table for the §3.5.3 model"
    ~expect:"every symbol instantiated by Ras.Formulation (counts below)";
  let region = Scenarios.region_of Scenarios.Small in
  let broker = Ras_broker.Broker.create region in
  let requests = Scenarios.requests_of Scenarios.Small region in
  let reservations =
    List.map Ras.Reservation.of_request requests
    @ Ras.Buffers.shared_buffer_reservations region ~fraction:0.02
  in
  let snapshot = Ras.Snapshot.take broker reservations in
  let symmetry = Ras.Symmetry.build snapshot in
  let f = Ras.Formulation.build symmetry in
  let std = Ras_mip.Model.compile f.Ras.Formulation.model in
  Report.row "S  (servers):                 %d usable\n"
    (Array.fold_left ( + ) 0 (Ras.Snapshot.usable_hw_histogram snapshot));
  Report.row "R  (reservations):            %d (%d guaranteed + %d shared-buffer)\n"
    (List.length reservations)
    (List.length requests)
    (List.length reservations - List.length requests);
  Report.row "x_{s,r} -> n_{c,r} (grouped): %d assignment variables over %d classes\n"
    (Ras.Formulation.num_assignment_vars f)
    (Ras.Symmetry.num_classes symmetry);
  Report.row "M_s  (movement costs):        unused %.1f / in-use %.1f\n"
    f.Ras.Formulation.params.Ras.Formulation.move_cost_unused
    f.Ras.Formulation.params.Ras.Formulation.move_cost_in_use;
  Report.row "beta (spread penalty):        %.1f   tau (buffer cost): %.1f\n"
    f.Ras.Formulation.params.Ras.Formulation.spread_penalty
    f.Ras.Formulation.params.Ras.Formulation.buffer_cost;
  Report.row "alpha_F/alpha_K, theta:       per-reservation (0.10 default spread, 0.10 theta)\n";
  Report.row "V_{s,r}, C_r:                 service RRU valuations / requested RRUs\n";
  Report.row "Psi_F (MSB partitions):       %d MSBs;  Psi_D: %d DCs;  Psi_K: %d racks\n"
    region.Ras_topology.Region.num_msbs region.Ras_topology.Region.num_dcs
    region.Ras_topology.Region.num_racks;
  Report.row "z_r  (expr 4/6 auxiliaries):  %d;  capacity slacks (softening): %d\n"
    (List.length f.Ras.Formulation.buffer_var)
    (List.length f.Ras.Formulation.capacity_slack);
  Report.row "compiled model:               %s\n"
    (Format.asprintf "%a" Ras_mip.Model.pp_stats std);
  (* prove the LP rendering works: first lines of the model *)
  let lp = Ras_mip.Lp_format.to_string std in
  let first_lines = String.split_on_char '\n' lp in
  Report.row "LP-format rendering (first 3 lines of %d, truncated):\n" (List.length first_lines);
  List.iteri
    (fun i l ->
      if i < 3 then
        if String.length l > 100 then Report.row "  %s...\n" (String.sub l 0 100)
        else Report.row "  %s\n" l)
    first_lines
