let uniform rng ~lo ~hi = lo +. Rng.float rng (hi -. lo)

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  let u = 1.0 -. Rng.float rng 1.0 in
  -.log u /. rate

let normal rng ~mean ~stddev =
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

let poisson rng ~mean =
  if mean <= 0.0 then 0
  else if mean > 30.0 then
    (* Normal approximation with continuity correction. *)
    let x = normal rng ~mean ~stddev:(sqrt mean) in
    max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.mean) in
    let rec loop k p =
      let p = p *. Rng.float rng 1.0 in
      if p <= limit then k else loop (k + 1) p
    in
    loop 0 1.0

let categorical rng weights =
  let total =
    Array.fold_left
      (fun acc w ->
        if w < 0.0 then invalid_arg "Dist.categorical: negative weight";
        acc +. w)
      0.0 weights
  in
  if total <= 0.0 then invalid_arg "Dist.categorical: zero total weight";
  let u = Rng.float rng total in
  let n = Array.length weights in
  let rec loop i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else loop (i + 1) acc
  in
  loop 0 0.0
