(* Per-layer records of a traced run, kept in memory and aggregated (or
   written as JSON lines) when the run ends.  Every record names where its
   number came from:
   - 'P' program: read off a result the public API already returns;
   - 'X' probe: a pure re-invocation on the same inputs, outside every timed
     window;
   - 'R' residual: a parent's measured time minus its measured children;
   - 'D' direct: a public call timed from outside. *)

type record = {
  scope : string;  (** "setup", "event", "change", "round" or "run" *)
  id : int;  (** number of the round, event or change within the run *)
  name : string;  (** the per-layer metric the value feeds *)
  parent : string;
  src : char;
  start : float;  (** seconds since the run began; 0 for counts *)
  value : float;  (** in the metric's unit *)
}

type t = { enabled : bool; origin : float; mutable records : record list }

let create ~enabled = { enabled; origin = Unix.gettimeofday (); records = [] }

let enabled t = t.enabled

let add t ~scope ~id ~name ?(parent = "") ~src ?start value =
  if t.enabled then begin
    let start = match start with Some s -> s -. t.origin | None -> 0.0 in
    t.records <- { scope; id; name; parent; src; start; value } :: t.records
  end

(* Times [f ()] and returns its result with the elapsed wall seconds. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let values t name =
  List.filter_map (fun r -> if r.name = name then Some r.value else None) t.records

let write_jsonl t ~path ~workload ~seed =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("workload", Json.Str workload);
                    ("seed", Json.Num (float_of_int seed));
                    ("scope", Json.Str r.scope);
                    ("id", Json.Num (float_of_int r.id));
                    ("span", Json.Str r.name);
                    ("parent", Json.Str r.parent);
                    ("src", Json.Str (String.make 1 r.src));
                    ("start", Json.Num r.start);
                    ("value", Json.Num r.value);
                  ]));
          output_char oc '\n')
        (List.rev t.records))
