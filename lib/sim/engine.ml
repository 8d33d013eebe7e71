type t = { mutable now : float; queue : (t -> unit) Event_queue.t }

exception Stop_recurring

let create () = { now = 0.0; queue = Event_queue.create () }

let now t = t.now

let schedule t ~at f =
  if at < t.now -. 1e-9 then
    invalid_arg (Printf.sprintf "Engine.schedule: %.3f is in the past (now %.3f)" at t.now);
  Event_queue.push t.queue ~time:(Float.max at t.now) f

let schedule_every t ~first ~period f =
  if period <= 0.0 then invalid_arg "Engine.schedule_every: period must be positive";
  let rec arm at =
    schedule t ~at (fun t ->
        match f t with () -> arm (at +. period) | exception Stop_recurring -> ())
  in
  arm first

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time t.queue with
    | Some time when time <= horizon +. 1e-9 -> (
      match Event_queue.pop t.queue with
      | Some (time, f) ->
        t.now <- Float.max t.now time;
        f t
      | None -> continue := false)
    | Some _ | None -> continue := false
  done;
  t.now <- Float.max t.now horizon
