(* The machine's speed, measured around every timed sample.

   The benchmark runs on shared hosts whose speed drifts between levels
   that last from seconds to minutes: ten runs of surge-mid on one seed,
   doing identical work, took 2.0-2.8 s per round, a 22% spread between
   quartiles, and no run length averages that out.  So each timed phase
   is divided by the mean time of this fixed kernel just before and just
   after it, and multiplied by [nominal_s]: end-to-end times are reported
   in seconds of a machine on which the kernel takes [nominal_s].  On
   those runs the round spread fell to 6-8%.

   The kernel calls nothing in the libraries under test, so a change to
   the program cannot move it.  It does what the program's time goes to
   and what the host's drift slows: a heap sort through a comparison
   closure (calls, unpredictable branches), indexed gathers with
   floating-point products, as the sparse simplex does, and a streaming
   pass over 8 MB, four times the per-core L2, as the collector's passes
   over the heap are.  Of the kernels tried, a floating-point dependency
   chain did not move with the drift at all, and a random walk or hash
   probes through 4 MB tables moved less than the program.  Its arrays
   (about 10 MB) live outside the OCaml heap and it allocates nothing, so
   it adds no work to the program's collector. *)

open Bigarray

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

let sort_n = 1 lsl 13

let unsorted =
  let a = Array1.create int c_layout sort_n in
  let x = ref 11 in
  for i = 0 to sort_n - 1 do
    x := lcg !x;
    a.{i} <- !x
  done;
  a

let sorted = Array1.create int c_layout sort_n

(* Behind a reference, so the compiler cannot inline the comparison. *)
let cmp = ref (fun (a : int) b -> compare a b)

let heap_sort a n =
  let cmp = !cmp in
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && cmp a.{l + 1} a.{l} > 0 then l + 1 else l in
      if cmp a.{c} a.{i} > 0 then begin
        let t = a.{c} in
        a.{c} <- a.{i};
        a.{i} <- t;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for e = n - 1 downto 1 do
    let t = a.{0} in
    a.{0} <- a.{e};
    a.{e} <- t;
    sift 0 e
  done

let gather_n = 1 lsl 16 (* 512 KB per array *)

let xs = Array1.init float64 c_layout gather_n (fun i -> float_of_int (i land 255) *. 0.01)

let vs = Array1.init float64 c_layout gather_n (fun i -> float_of_int (i land 127) *. 0.02)

let idx =
  let a = Array1.create int c_layout gather_n in
  let x = ref 5 in
  for i = 0 to gather_n - 1 do
    x := lcg !x;
    a.{i} <- !x land (gather_n - 1)
  done;
  a

let stream_n = 1 lsl 20 (* 8 MB *)

let stream = Array1.init int c_layout stream_n (fun i -> i land 1023)

let kernel () =
  Array1.blit unsorted sorted;
  heap_sort sorted sort_n;
  let s = ref 0.0 in
  for _ = 1 to 20 do
    for k = 0 to gather_n - 1 do
      s := !s +. (xs.{idx.{k}} *. vs.{k})
    done
  done;
  let n = ref 0 in
  for _ = 1 to 4 do
    for k = 0 to stream_n - 1 do
      n := !n + stream.{k}
    done
  done;
  (* keeps the work from being optimised away *)
  !s +. float_of_int (sorted.{0} + !n)

let sink = ref 0.0

let once () =
  let t0 = Unix.gettimeofday () in
  sink := kernel ();
  Unix.gettimeofday () -. t0

(* Seconds the kernel takes now: the median of three, so that one
   interrupted kernel does not skew the samples it scales. *)
let measure () =
  let a = once () and b = once () and c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The kernel's time on the 2-core x86-64 VM the bounds were set on, in
   a typical stretch. *)
let nominal_s = 0.015

(* [raw] seconds measured between kernels that took [before] and [after]
   seconds, in seconds of the nominal machine.  Both sides count, since
   the machine may change speed during a phase of a few seconds. *)
let scale ~before ~after raw = raw *. nominal_s *. 2.0 /. (before +. after)
