type t = {
  name : string;
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create ~name = { name; times = Array.make 16 0.0; values = Array.make 16 0.0; len = 0 }

let grow t =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let times = Array.make (2 * cap) 0.0 and values = Array.make (2 * cap) 0.0 in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.values 0 values 0 t.len;
    t.times <- times;
    t.values <- values
  end

let record t ~time v =
  if t.len > 0 && time < t.times.(t.len - 1) then
    invalid_arg "Timeseries.record: time went backwards";
  grow t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- v;
  t.len <- t.len + 1

let points t = Array.init t.len (fun i -> (t.times.(i), t.values.(i)))

let bucketize t ~width ~f =
  if t.len = 0 then [||]
  else begin
    let start = t.times.(0) in
    let buckets = Hashtbl.create 64 in
    for i = 0 to t.len - 1 do
      let b = int_of_float ((t.times.(i) -. start) /. width) in
      let existing = try Hashtbl.find buckets b with Not_found -> [] in
      Hashtbl.replace buckets b (t.values.(i) :: existing)
    done;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) buckets [] in
    let keys = List.sort compare keys in
    let row k =
      let vs = Array.of_list (List.rev (Hashtbl.find buckets k)) in
      (start +. (float_of_int k *. width), f vs)
    in
    Array.of_list (List.map row keys)
  end

let pp_table ?(max_rows = 20) ppf t =
  Format.fprintf ppf "@[<v>%s (%d points)@," t.name t.len;
  if t.len > 0 then begin
    let step = max 1 (t.len / max_rows) in
    let i = ref 0 in
    while !i < t.len do
      Format.fprintf ppf "  t=%-12.1f %g@," t.times.(!i) t.values.(!i);
      i := !i + step
    done
  end;
  Format.fprintf ppf "@]"
