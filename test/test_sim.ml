(* Tests for ras_sim: event queue ordering, engine scheduling semantics and
   the metrics registry. *)

module Event_queue = Ras_sim.Event_queue
module Engine = Ras_sim.Engine
module Metrics = Ras_sim.Metrics

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] [ first; second; third ]

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:1.0 i
  done;
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 (fun i -> i))
    (List.rev !out)

let test_queue_stress_sorted () =
  let q = Event_queue.create () in
  let rng = Ras_stats.Rng.create 14 in
  for i = 0 to 999 do
    Event_queue.push q ~time:(Ras_stats.Rng.float rng 100.0) i
  done;
  let last = ref neg_infinity in
  let rec drain n =
    match Event_queue.pop q with
    | Some (t, _) ->
      Alcotest.(check bool) "monotone pops" true (t >= !last);
      last := t;
      drain (n + 1)
    | None -> n
  in
  Alcotest.(check int) "all popped" 1000 (drain 0)

let test_queue_pop_releases_payload () =
  (* a popped entry must not stay reachable through the heap's backing
     array — only weak pointers may still see it after a full major GC *)
  let q = Event_queue.create () in
  let w = Weak.create 3 in
  for i = 0 to 2 do
    let payload = ref i in
    Weak.set w i (Some payload);
    Event_queue.push q ~time:(float_of_int i) payload
  done;
  let drop () = match Event_queue.pop q with Some _ -> () | None -> () in
  drop ();
  drop ();
  Gc.full_major ();
  Alcotest.(check bool) "popped payload 0 collected" false (Weak.check w 0);
  Alcotest.(check bool) "popped payload 1 collected" false (Weak.check w 1);
  Alcotest.(check bool) "queued payload 2 still live" true (Weak.check w 2);
  drop ();
  Gc.full_major ();
  Alcotest.(check bool) "drained payload collected" false (Weak.check w 2)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2.0 (fun _ -> log := 2 :: !log);
  Engine.schedule e ~at:1.0 (fun _ -> log := 1 :: !log);
  Engine.run_until e 3.0;
  Alcotest.(check (list int)) "order" [ 1; 2 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "now advanced to horizon" 3.0 (Engine.now e)

let test_engine_horizon_excludes_future () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~at:5.0 (fun _ -> fired := true);
  Engine.run_until e 4.0;
  Alcotest.(check bool) "future event pending" false !fired;
  Engine.run_until e 6.0;
  Alcotest.(check bool) "fires later" true !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.run_until e 10.0;
  Alcotest.(check bool) "past rejected" true
    (try
       Engine.schedule e ~at:5.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_engine_callback_schedules_more () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.schedule e ~at:1.0 (fun e ->
      incr count;
      Engine.schedule e ~at:2.0 (fun _ -> incr count));
  Engine.run_until e 3.0;
  Alcotest.(check int) "chained events" 2 !count

let test_schedule_every_and_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.schedule_every e ~first:1.0 ~period:1.0 (fun _ ->
      incr count;
      if !count >= 3 then raise Engine.Stop_recurring);
  Engine.run_until e 100.0;
  Alcotest.(check int) "stopped after three" 3 !count

let test_schedule_every_rejects_bad_period () =
  let e = Engine.create () in
  Alcotest.(check bool) "bad period" true
    (try
       Engine.schedule_every e ~first:0.0 ~period:0.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.record m "a" ~time:0.0 1.0;
  Metrics.record m "b" ~time:0.0 2.0;
  Metrics.record m "a" ~time:1.0 3.0;
  (* [pp] prints every series as "<name> (<n> points)", in name order *)
  let out = Format.asprintf "%a" Metrics.pp m in
  let rec at needle i =
    if i + String.length needle > String.length out then max_int
    else if String.sub out i (String.length needle) = needle then i
    else at needle (i + 1)
  in
  Alcotest.(check bool) "pp lists series by name" true
    (at "a (2 points)" 0 < at "b (1 points)" 0 && at "b (1 points)" 0 < max_int);
  (match Metrics.find m "a" with
  | Some s -> Alcotest.(check int) "two points" 2 (Array.length (Ras_stats.Timeseries.points s))
  | None -> Alcotest.fail "series a missing");
  Alcotest.(check bool) "missing series" true (Metrics.find m "zzz" = None)

let suite =
  [
    Alcotest.test_case "queue ordering" `Quick test_queue_ordering;
    Alcotest.test_case "queue fifo ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue stress sorted" `Quick test_queue_stress_sorted;
    Alcotest.test_case "queue pop releases payload" `Quick test_queue_pop_releases_payload;
    Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine horizon" `Quick test_engine_horizon_excludes_future;
    Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "engine chained events" `Quick test_engine_callback_schedules_more;
    Alcotest.test_case "schedule_every stop" `Quick test_schedule_every_and_stop;
    Alcotest.test_case "schedule_every bad period" `Quick test_schedule_every_rejects_bad_period;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
  ]
