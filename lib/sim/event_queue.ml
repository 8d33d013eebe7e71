type 'a entry = { time : float; seq : int; payload : 'a }

(* Slots at or above [len] hold [None] so that a popped entry's payload never
   stays reachable through the backing array — the same space-leak class fixed
   in Branch_bound's Heap.pop. *)
type 'a t = { mutable data : 'a entry option array; mutable len : int; mutable next_seq : int }

let create () = { data = [||]; len = 0; next_seq = 0 }

let get t i = match t.data.(i) with Some e -> e | None -> assert false

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.len = Array.length t.data then begin
    let cap = max 16 (2 * t.len) in
    let bigger = Array.make cap None in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- Some entry;
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && before (get t !i) (get t ((!i - 1) / 2)) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop t =
  if t.len = 0 then None
  else begin
    let top = get t 0 in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && before (get t l) (get t !smallest) then smallest := l;
        if r < t.len && before (get t r) (get t !smallest) then smallest := r;
        if !smallest <> !i then begin
          swap t !i !smallest;
          i := !smallest
        end
        else continue := false
      done
    end;
    (* clear the vacated slot: the popped (or moved) entry must not outlive
       the caller's use of its payload *)
    t.data.(t.len) <- None;
    Some (top.time, top.payload)
  end

let peek_time t = if t.len = 0 then None else Some (get t 0).time
