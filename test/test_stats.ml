(* Tests for the statistics substrate: sample distributions, time series,
   report rendering. *)

open Splay_stats

let feed xs =
  let d = Dist.create () in
  Dist.add_list d xs;
  d

(* {2 Dist} *)

let test_dist_basic () =
  let d = feed [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "count" 3 (Dist.count d);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Dist.mean d);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Dist.min_value d);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Dist.max_value d);
  Alcotest.(check bool) "not empty" false (Dist.is_empty d)

let test_dist_empty () =
  let d = Dist.create () in
  Alcotest.(check bool) "empty" true (Dist.is_empty d);
  Alcotest.(check (float 1e-9)) "mean of empty" 0.0 (Dist.mean d);
  Alcotest.check_raises "percentile of empty" (Invalid_argument "Dist.percentile: empty")
    (fun () -> ignore (Dist.percentile d 50.0))

let test_dist_percentiles () =
  let d = feed (List.init 101 (fun i -> Float.of_int i)) in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Dist.percentile d 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Dist.percentile d 50.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Dist.percentile d 100.0);
  Alcotest.(check (float 1e-9)) "p25" 25.0 (Dist.percentile d 25.0);
  (* interpolation between order statistics *)
  let d2 = feed [ 0.0; 10.0 ] in
  Alcotest.(check (float 1e-9)) "interpolated" 5.0 (Dist.percentile d2 50.0)

let test_dist_add_after_query () =
  (* querying sorts; adding afterwards must keep results correct *)
  let d = feed [ 5.0; 1.0 ] in
  ignore (Dist.percentile d 50.0);
  Dist.add d 0.0;
  Alcotest.(check (float 1e-9)) "min after new add" 0.0 (Dist.min_value d);
  Alcotest.(check int) "count" 3 (Dist.count d)

let test_dist_cdf () =
  let d = feed [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "cdf points"
    [ (0.5, 0.0); (2.0, 0.5); (10.0, 1.0) ]
    (Dist.cdf d ~points:[ 0.5; 2.0; 10.0 ])

let test_dist_histogram_pdf () =
  let d = feed [ 0.1; 0.2; 1.5; 2.5; 2.6; 9.9; -5.0; 50.0 ] in
  let pdf = Dist.pdf d ~bins:10 ~lo:0.0 ~hi:10.0 in
  Alcotest.(check int) "bins" 10 (Array.length pdf);
  Alcotest.(check (float 1e-9)) "left edges" 3.0 (fst pdf.(3));
  let mass = Array.fold_left (fun a (_, p) -> a +. p) 0.0 pdf in
  Alcotest.(check (float 1e-6)) "out-of-range clamped into edges: pdf sums to 100%" 100.0 mass;
  Alcotest.(check (float 1e-9)) "first bin holds clamped low" 37.5 (snd pdf.(0));
  Alcotest.(check (float 1e-9)) "last bin holds clamped high" 25.0 (snd pdf.(9))

let test_dist_merge () =
  let d = feed [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  let m = Dist.merge d (feed [ 100.0 ]) in
  Alcotest.(check int) "merged count" 9 (Dist.count m);
  Alcotest.(check (float 1e-9)) "merged max" 100.0 (Dist.max_value m);
  Alcotest.(check int) "inputs untouched" 8 (Dist.count d)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let d = feed xs in
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vs = List.map (Dist.percentile d) ps in
      let rec mono = function a :: (b :: _ as r) -> a <= b && mono r | _ -> true in
      mono vs)

let prop_cdf_bounds =
  QCheck.Test.make ~name:"cdf between 0 and 1, reaches 1 at max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let d = feed xs in
      let _, at_max = List.hd (Dist.cdf d ~points:[ Dist.max_value d ]) in
      at_max = 1.0
      && List.for_all
           (fun (_, f) -> f >= 0.0 && f <= 1.0)
           (Dist.cdf d ~points:[ -1000.0; 0.0; 1000.0 ]))

(* {2 Series} *)

let test_series_binning () =
  let s = Series.create ~bin_width:10.0 in
  Series.add s ~time:1.0 5.0;
  Series.add s ~time:9.9 7.0;
  Series.add s ~time:10.0 100.0;
  Series.add s ~time:35.0 1.0;
  let bins = Series.bins s in
  Alcotest.(check int) "three non-empty bins" 3 (List.length bins);
  Alcotest.(check (list (float 1e-9))) "edges" [ 0.0; 10.0; 30.0 ] (List.map fst bins);
  (match Series.bin_at s 5.0 with
  | Some d -> Alcotest.(check int) "first bin has two samples" 2 (Dist.count d)
  | None -> Alcotest.fail "bin missing")

let test_series_counter () =
  let c = Series.Counter.create ~bin_width:60.0 in
  Series.Counter.incr c ~time:10.0;
  Series.Counter.incr c ~time:50.0;
  for _ = 1 to 5 do
    Series.Counter.incr c ~time:70.0
  done;
  Alcotest.(check int) "bin 0" 2 (Series.Counter.get c ~time:30.0);
  Alcotest.(check int) "bin 1" 5 (Series.Counter.get c ~time:119.0);
  Alcotest.(check int) "empty bin" 0 (Series.Counter.get c ~time:1000.0);
  Alcotest.(check (list (pair (float 1e-9) int))) "series" [ (0.0, 2); (60.0, 5) ]
    (Series.Counter.series c)

(* {2 Report} *)

let test_report_cells () =
  Alcotest.(check string) "default decimals" "3.14" (Report.float_cell 3.14159);
  Alcotest.(check string) "custom decimals" "3.1" (Report.float_cell ~decimals:1 3.14159);
  Alcotest.(check (list string)) "percentile header" [ "p5"; "p50"; "p99.9" ]
    (Report.percentile_header [ 5.0; 50.0; 99.9 ])

let test_report_bar () =
  Alcotest.(check string) "full" "##########" (Report.bar 10.0 ~max:10.0 ~width:10);
  Alcotest.(check string) "half" "#####" (Report.bar 5.0 ~max:10.0 ~width:10);
  Alcotest.(check string) "zero" "" (Report.bar 0.0 ~max:10.0 ~width:10);
  Alcotest.(check string) "clamped" "##########" (Report.bar 99.0 ~max:10.0 ~width:10);
  Alcotest.(check string) "zero max" "" (Report.bar 5.0 ~max:0.0 ~width:10)

(* {2 Sink — the sketch, against Dist as the exact reference} *)

let sink_feed s xs = List.iter (Sink.add s) xs

(* Streams chosen to stress a sketch: already sorted (late samples are
   the extremes), reverse sorted, all-ties, and a spike mixture where a
   rare huge value dominates the range. *)
let adversarial_streams n =
  [
    ("sorted", List.init n Float.of_int);
    ("reverse", List.init n (fun i -> Float.of_int (n - i)));
    ("constant", List.init n (fun _ -> 42.0));
    ("spike", List.init n (fun i -> if i mod 100 = 0 then 1e9 else 1.0));
  ]

(* What the sketch tracks outside its bucket table is exact: it matches
   Dist on count, moments and the endpoints. *)
let test_sink_exact_matches_dist () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  let s = Sink.sketch () and d = feed xs in
  sink_feed s xs;
  Alcotest.(check int) "count" (Dist.count d) (Sink.count s);
  Alcotest.(check (float 1e-9)) "mean" (Dist.mean d) (Sink.mean s);
  Alcotest.(check (float 1e-9)) "p0" (Dist.percentile d 0.0) (Sink.quantile s 0.0);
  Alcotest.(check (float 1e-9)) "p100" (Dist.percentile d 100.0) (Sink.quantile s 1.0)

let test_sink_sketch_moments_exact () =
  (* count / mean / min / max are tracked outside the bucket table, so
     they must be exact on every stream *)
  List.iter
    (fun (name, xs) ->
      let e = feed xs and k = Sink.sketch () in
      sink_feed k xs;
      Alcotest.(check int) (name ^ " count") (Dist.count e) (Sink.count k);
      Alcotest.(check (float 1e-6)) (name ^ " min") (Dist.min_value e) (Sink.min_value k);
      Alcotest.(check (float 1e-6)) (name ^ " max") (Dist.max_value e) (Sink.max_value k);
      let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a) in
      Alcotest.(check bool) (name ^ " mean") true (close (Dist.mean e) (Sink.mean k)))
    (adversarial_streams 5_000)

let test_sink_sketch_error_bound () =
  (* A sketch quantile lands in the bucket of the true order statistic,
     so it is off by at most that bucket's width. *)
  List.iter
    (fun (name, xs) ->
      let e = feed xs and k = Sink.sketch () in
      sink_feed k xs;
      List.iter
        (fun q ->
          let v = Sink.quantile k q and x = Dist.percentile e (100.0 *. q) in
          let lo, hi = Sink.bucket x in
          Alcotest.(check bool)
            (Printf.sprintf "%s q=%g: %g within [%g, %g)'s width of %g" name q v lo hi x)
            true
            (Float.abs (v -. x) <= hi -. lo))
        [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.999 ])
    (adversarial_streams 20_000)

let test_sink_sketch_endpoints_exact () =
  let k = Sink.sketch () in
  sink_feed k (List.init 10_000 (fun i -> if i = 7777 then 1e9 else Float.of_int i));
  Alcotest.(check (float 1e-9)) "q=0 is the true min" 0.0 (Sink.quantile k 0.0);
  Alcotest.(check (float 1e-9)) "q=1 is the true max" 1e9 (Sink.quantile k 1.0)

let test_sink_merge () =
  let xs = List.init 3_000 Float.of_int in
  let ys = List.init 3_000 (fun i -> Float.of_int (10_000 + i)) in
  (* merging keeps the exact moments *)
  let ka = Sink.sketch () and kb = Sink.sketch () in
  sink_feed ka xs;
  sink_feed kb ys;
  let km = Sink.merge ka kb in
  Alcotest.(check int) "sketch merged count" 6_000 (Sink.count km);
  Alcotest.(check (float 1e-9)) "sketch merged min" 0.0 (Sink.min_value km);
  Alcotest.(check (float 1e-9)) "sketch merged max" 12_999.0 (Sink.max_value km);
  let expected_mean = (Dist.mean (feed xs) *. 0.5) +. (Dist.mean (feed ys) *. 0.5) in
  Alcotest.(check (float 1e-6)) "sketch merged mean" expected_mean (Sink.mean km);
  (* the merged median separates the two halves *)
  let p50 = Sink.quantile km 0.5 in
  Alcotest.(check bool) "merged median between the halves" true (p50 > 1_000.0 && p50 < 12_000.0);
  Alcotest.(check int) "to_dist keeps one value per sample" 6_000 (Dist.count (Sink.to_dist km))

let test_sink_empty () =
  let s = Sink.sketch () in
  Alcotest.(check int) "count" 0 (Sink.count s);
  Alcotest.(check (float 1e-9)) "mean" 0.0 (Sink.mean s);
  Alcotest.check_raises "min" (Invalid_argument "Sink.min_value: empty") (fun () ->
      ignore (Sink.min_value s));
  Alcotest.check_raises "quantile" (Invalid_argument "Sink.quantile: empty") (fun () ->
      ignore (Sink.quantile s 0.5))

(* The exact aggregates live unboxed beside the bucket table, so a sample
   costs no allocation once the table exists. *)
let test_sink_add_allocates_nothing () =
  let s = Sink.sketch () in
  let xs = [ 0.25; 3.0; 0.0; 1e9; 7.5 ] in
  sink_feed s xs;
  let before = Gc.minor_words () in
  (* no closure per pass: [List.iter (Sink.add s)] would build one *)
  let rec feed = function [] -> () | x :: r -> Sink.add s x; feed r in
  for _ = 1 to 10_000 do
    feed xs
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "50k samples allocate %.0f minor words" words)
    true (words < 100.0);
  Alcotest.(check int) "every sample counted" 50_005 (Sink.count s)

let prop_sink_merge_moments =
  QCheck.Test.make ~name:"merged sink = sink of concatenation" ~count:300
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let sa = Sink.sketch () and sb = Sink.sketch () and s_all = Sink.sketch () in
      sink_feed sa xs;
      sink_feed sb ys;
      sink_feed s_all (xs @ ys);
      let m = Sink.merge sa sb in
      let close a b = Float.abs (a -. b) < 1e-6 *. (1.0 +. Float.abs a) in
      Sink.count m = Sink.count s_all
      && close (Sink.mean m) (Sink.mean s_all)
      && (Sink.is_empty m
         || (Sink.min_value m = Sink.min_value s_all && Sink.max_value m = Sink.max_value s_all)))

let prop_sink_quantiles_monotone =
  QCheck.Test.make ~name:"sink quantiles monotone and within [min,max]" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Sink.sketch () in
      sink_feed s xs;
      let qs = List.map (Sink.quantile s) [ 0.0; 0.1; 0.5; 0.9; 1.0 ] in
      let rec mono = function a :: (b :: _ as r) -> a <= b && mono r | _ -> true in
      mono qs && List.for_all (fun v -> v >= Sink.min_value s && v <= Sink.max_value s) qs)

(* Merging is exact: two merged sketches answer every quantile exactly as
   one sketch fed both streams. *)
let prop_sink_merge_exact =
  QCheck.Test.make ~name:"merged sketch quantiles = quantiles of the concatenation" ~count:300
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 200) (float_range (-10.) 1e4))
        (list_of_size (QCheck.Gen.int_range 0 200) (float_range (-10.) 1e4)))
    (fun (xs, ys) ->
      let whole = Sink.sketch () in
      sink_feed whole (xs @ ys);
      let ka = Sink.sketch () and kb = Sink.sketch () in
      sink_feed ka xs;
      sink_feed kb ys;
      let m = Sink.merge ka kb in
      Sink.count m = Sink.count whole
      && List.for_all
           (fun q -> Sink.quantile m q = Sink.quantile whole q)
           [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ])

(* The text form carries a sink without losing a count: decoding what
   encode wrote, with the exact aggregates beside it, answers every
   quantile as the original does, and the decoder holds the writer to its
   count. *)
let prop_hdr_encode_round_trip =
  QCheck.Test.make ~name:"hdr decode (encode t) answers as t" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 300) (float_range (-1.) 1e6))
    (fun xs ->
      let t = Sink.sketch () in
      sink_feed t xs;
      let b = Buffer.create 64 in
      Sink.encode b t;
      let n = List.length xs and sum = Sink.sum t in
      let min = if n = 0 then 0.0 else Sink.min_value t in
      let max = if n = 0 then 0.0 else Sink.max_value t in
      match Sink.decode ~n ~sum ~min ~max (Buffer.contents b) with
      | None -> false
      | Some d ->
          Sink.count d = n
          && Sink.decode ~n:(n + 1) ~sum ~min ~max (Buffer.contents b) = None
          && Sink.mean d = Sink.mean t
          && (n = 0
             || List.for_all
                  (fun q -> Sink.quantile d q = Sink.quantile t q)
                  [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ]))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_percentile_monotone;
      prop_cdf_bounds;
      prop_sink_merge_moments;
      prop_sink_quantiles_monotone;
      prop_sink_merge_exact;
      prop_hdr_encode_round_trip;
    ]

let () =
  Alcotest.run "splay_stats"
    [
      ( "dist",
        [
          Alcotest.test_case "basic" `Quick test_dist_basic;
          Alcotest.test_case "empty" `Quick test_dist_empty;
          Alcotest.test_case "percentiles" `Quick test_dist_percentiles;
          Alcotest.test_case "add after query" `Quick test_dist_add_after_query;
          Alcotest.test_case "cdf" `Quick test_dist_cdf;
          Alcotest.test_case "histogram and pdf" `Quick test_dist_histogram_pdf;
          Alcotest.test_case "merge" `Quick test_dist_merge;
        ] );
      ( "series",
        [
          Alcotest.test_case "binning" `Quick test_series_binning;
          Alcotest.test_case "counter" `Quick test_series_counter;
        ] );
      ( "report",
        [
          Alcotest.test_case "cells" `Quick test_report_cells;
          Alcotest.test_case "bar" `Quick test_report_bar;
        ] );
      ( "sink",
        [
          Alcotest.test_case "exact matches dist" `Quick test_sink_exact_matches_dist;
          Alcotest.test_case "sketch moments exact" `Quick test_sink_sketch_moments_exact;
          Alcotest.test_case "sketch error bound" `Quick test_sink_sketch_error_bound;
          Alcotest.test_case "sketch endpoints exact" `Quick test_sink_sketch_endpoints_exact;
          Alcotest.test_case "merge" `Quick test_sink_merge;
          Alcotest.test_case "empty" `Quick test_sink_empty;
          Alcotest.test_case "add allocates nothing" `Quick test_sink_add_allocates_nothing;
        ] );
      ("properties", qsuite);
    ]
