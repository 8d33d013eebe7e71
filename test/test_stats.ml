(* Tests for ras_stats: deterministic RNG, distributions, summaries and time
   series. *)

open Ras_stats

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a 1.0) (Rng.float b 1.0)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.float a 1.0 = Rng.float b 1.0 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 6 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_shuffle_permutation () =
  let rng = Rng.create 8 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_exponential_mean () =
  let rng = Rng.create 9 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential rng ~rate:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_normal_moments () =
  let rng = Rng.create 10 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Dist.normal rng ~mean:3.0 ~stddev:2.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true
    (Float.abs (sqrt (var /. float_of_int n) -. 2.0) < 0.1)

let test_categorical_respects_zeros () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let i = Dist.categorical rng [| 0.0; 1.0; 0.0 |] in
    Alcotest.(check int) "only index 1" 1 i
  done

let test_categorical_rejects_all_zero () =
  let rng = Rng.create 11 in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Dist.categorical: zero total weight") (fun () ->
      ignore (Dist.categorical rng [| 0.0; 0.0 |]))

let test_poisson_mean () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.poisson rng ~mean:4.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.0) < 0.1)

let test_summary_exact () =
  let s = Summary.create () in
  Summary.add_list s [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Summary.mean s);
  check_float "min" 1.0 (Summary.min_value s);
  check_float "max" 4.0 (Summary.max_value s);
  check_float "p0" 1.0 (Summary.percentile s 0.0);
  check_float "p100" 4.0 (Summary.percentile s 100.0);
  check_float "p50" 2.5 (Summary.percentile s 50.0)

let test_summary_mean_large_offset () =
  (* samples clustered around 1e9: Welford's running mean keeps them exact *)
  let s = Summary.create () in
  Summary.add_list s [ 1e9; 1e9 +. 1.0; 1e9 +. 2.0 ];
  check_float "mean" (1e9 +. 1.0) (Summary.mean s)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Summary.mean s));
  Alcotest.(check bool) "p50 nan" true (Float.is_nan (Summary.percentile s 50.0))

let test_summary_percentile_bounds () =
  let s = Summary.create () in
  Summary.add s 1.0;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Summary.percentile: p outside [0, 100]") (fun () ->
      ignore (Summary.percentile s 101.0))

let test_summary_interleaved_sort () =
  (* adding after reading percentiles must keep results correct *)
  let s = Summary.create () in
  Summary.add s 5.0;
  ignore (Summary.percentile s 50.0);
  Summary.add s 1.0;
  check_float "min updates" 1.0 (Summary.min_value s)

let test_histogram () =
  let s = Summary.create () in
  Summary.add_list s [ 0.0; 0.5; 1.0; 1.5; 2.0 ];
  let h = Summary.histogram s ~bins:2 in
  Alcotest.(check int) "total count preserved" 5 (Array.fold_left ( + ) 0 h.Summary.counts)

let test_timeseries_basics () =
  let ts = Timeseries.create ~name:"t" in
  Timeseries.record ts ~time:0.0 1.0;
  Timeseries.record ts ~time:1.0 2.0;
  Timeseries.record ts ~time:1.0 3.0;
  Alcotest.(check (array (pair (float 1e-9) (float 1e-9))))
    "points in recording order"
    [| (0.0, 1.0); (1.0, 2.0); (1.0, 3.0) |]
    (Timeseries.points ts)

let test_timeseries_monotonic () =
  let ts = Timeseries.create ~name:"t" in
  Timeseries.record ts ~time:5.0 1.0;
  Alcotest.check_raises "backwards time" (Invalid_argument "Timeseries.record: time went backwards")
    (fun () -> Timeseries.record ts ~time:4.0 1.0)

let test_timeseries_bucketize () =
  let ts = Timeseries.create ~name:"t" in
  List.iter (fun (t, v) -> Timeseries.record ts ~time:t v)
    [ (0.0, 1.0); (0.5, 3.0); (1.2, 5.0) ];
  let buckets = Timeseries.bucketize ts ~width:1.0 ~f:(Array.fold_left ( +. ) 0.0) in
  Alcotest.(check int) "two buckets" 2 (Array.length buckets);
  check_float "first bucket sum" 4.0 (snd buckets.(0));
  check_float "second bucket sum" 5.0 (snd buckets.(1))

(* qcheck properties *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Summary.create () in
      Summary.add_list s xs;
      let p25 = Summary.percentile s 25.0
      and p50 = Summary.percentile s 50.0
      and p75 = Summary.percentile s 75.0 in
      p25 <= p50 +. 1e-9 && p50 <= p75 +. 1e-9)

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"Rng.int covers its range" ~count:20 QCheck.(int_range 2 20)
    (fun n ->
      let rng = Rng.create n in
      let seen = Array.make n false in
      for _ = 1 to n * 200 do
        seen.(Rng.int rng n) <- true
      done;
      Array.for_all (fun b -> b) seen)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "categorical zeros" `Quick test_categorical_respects_zeros;
    Alcotest.test_case "categorical all-zero rejected" `Quick test_categorical_rejects_all_zero;
    Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
    Alcotest.test_case "summary exact values" `Quick test_summary_exact;
    Alcotest.test_case "summary mean large offset" `Quick test_summary_mean_large_offset;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "summary percentile bounds" `Quick test_summary_percentile_bounds;
    Alcotest.test_case "summary interleaved sort" `Quick test_summary_interleaved_sort;
    Alcotest.test_case "histogram count" `Quick test_histogram;
    Alcotest.test_case "timeseries basics" `Quick test_timeseries_basics;
    Alcotest.test_case "timeseries monotonic" `Quick test_timeseries_monotonic;
    Alcotest.test_case "timeseries bucketize" `Quick test_timeseries_bucketize;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_rng_int_uniformish;
  ]
