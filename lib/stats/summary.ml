type t = {
  mutable data : float array;
  mutable len : int;
  mutable run_mean : float;  (* Welford running mean *)
  mutable sorted : bool;
}

let create () =
  { data = Array.make 16 0.0; len = 0; run_mean = 0.0; sorted = true }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  (* Welford's running mean *)
  t.run_mean <- t.run_mean +. ((x -. t.run_mean) /. float_of_int t.len);
  t.sorted <- false

let add_list t xs = List.iter (add t) xs

let count t = t.len

let mean t = if t.len = 0 then nan else t.run_mean

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.len in
    Array.sort Float.compare live;
    Array.blit live 0 t.data 0 t.len;
    t.sorted <- true
  end

let min_value t =
  if t.len = 0 then nan
  else begin
    ensure_sorted t;
    t.data.(0)
  end

let max_value t =
  if t.len = 0 then nan
  else begin
    ensure_sorted t;
    t.data.(t.len - 1)
  end

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p outside [0, 100]";
  if t.len = 0 then nan
  else begin
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
  end

type histogram = { lo : float; hi : float; counts : int array }

let histogram t ~bins =
  if bins <= 0 then invalid_arg "Summary.histogram: bins must be positive";
  if t.len = 0 then invalid_arg "Summary.histogram: empty accumulator";
  let lo = min_value t and hi = max_value t in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  for i = 0 to t.len - 1 do
    let b = int_of_float ((t.data.(i) -. lo) /. width) in
    let b = if b < 0 then 0 else if b >= bins then bins - 1 else b in
    counts.(b) <- counts.(b) + 1
  done;
  { lo; hi; counts }

let pp ppf t =
  if t.len = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f min=%.3f max=%.3f"
      t.len (mean t) (percentile t 50.0) (percentile t 95.0) (percentile t 99.0)
      (min_value t) (max_value t)
