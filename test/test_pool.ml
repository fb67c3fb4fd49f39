(* Tests for the multicore trial pool: results and merged observability
   output must be byte-identical for any number of domains, exceptions
   must propagate, and the pool must stay usable afterwards. *)

open Splay_sim
open Support
module Obs = Splay_obs.Obs
module Ma = Splay_obs.Metrics_analysis
module Sink = Splay_stats.Sink

(* One self-contained trial: its own engine, its own seed, some spans and
   metrics recorded along the way, a plain-data result out. *)
let trial seed =
  let e = Engine.create ~seed () in
  let c = Obs.counter "pool.test.ticks" in
  let h = Obs.histogram "pool.test.fire_time" in
  let total = ref 0 in
  for i = 1 to 50 do
    ignore
      (Engine.schedule e
         ~delay:(Float.of_int (i * seed mod 17))
         (fun () ->
           Obs.incr c;
           Obs.observe h (Engine.now e);
           let s = Obs.span "pool.tick" in
           total := !total + i;
           Obs.finish s))
  done;
  ignore (Engine.run e);
  Printf.sprintf "seed=%d total=%d end=%.3f" seed !total (Engine.now e)

let seeds = [ 3; 1; 4; 1; 5; 9; 2; 6 ]

let test_results_deterministic () =
  let r1 = Pool.map ~jobs:1 trial seeds in
  let r4 = Pool.map ~jobs:4 trial seeds in
  Alcotest.(check (list string)) "same results" r1 r4

let obs_output jobs =
  with_obs (fun () ->
      let rs = Pool.map ~jobs trial seeds in
      (rs, Obs.trace_jsonl (), Obs.metrics_jsonl ()))

let test_obs_merge_deterministic () =
  let r1, t1, m1 = obs_output 1 in
  let r4, t4, m4 = obs_output 4 in
  Alcotest.(check (list string)) "results identical" r1 r4;
  Alcotest.(check bool) "trace nonempty" true (String.length t1 > 0);
  Alcotest.(check bool) "metrics nonempty" true (String.length m1 > 0);
  Alcotest.(check string) "merged trace identical" t1 t4;
  Alcotest.(check string) "merged metrics identical" m1 m4

(* The metrics plane under fan-out: with windowed rollups armed, the
   merged [splay-metrics/2] dump must be a pure function of the trial
   list — byte-identical whether the trials ran on 1, 2 or 4 domains. *)
let metrics_output f items jobs =
  Obs.metrics_enabled := true;
  Obs.reset ();
  Obs.Rollup.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Rollup.clear ();
      Obs.reset ();
      Obs.metrics_enabled := false)
    (fun () ->
      let rs = Pool.map ~jobs f items in
      (rs, Obs.metrics_plane_jsonl ()))

let test_metrics_plane_merge_deterministic () =
  let r1, m1 = metrics_output trial seeds 1 in
  let _, m2 = metrics_output trial seeds 2 in
  let r4, m4 = metrics_output trial seeds 4 in
  Alcotest.(check (list string)) "results identical" r1 r4;
  Alcotest.(check bool) "dump carries the schema header" true
    (String.length m1 > 0
    && String.sub m1 0 (min 32 (String.length m1)) = "{\"schema\":\"splay-metrics/2\",\"win");
  Alcotest.(check string) "jobs=2 dump byte-identical" m1 m2;
  Alcotest.(check string) "jobs=4 dump byte-identical" m1 m4

(* Two trials with different latency spreads fill the same window: the
   dump splices both rows, and the analyser's merged p99 must be the one
   a single table fed the union stream gives, not a blend of the two. *)
let spread_trial (seed, scale) =
  let e = Engine.create ~seed () in
  let h = Obs.histogram "pool.test.spread" in
  let xs = List.init 400 (fun i -> scale *. (1.0 +. Float.of_int ((i * 7919) mod 400))) in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> List.iter (Obs.observe h) xs));
  ignore (Engine.run e);
  xs

let test_merged_quantiles_exact () =
  let samples, dump = metrics_output spread_trial [ (1, 0.0001); (2, 0.01) ] 2 in
  let m = Ma.load dump in
  Alcotest.(check int) "one window-0 row per trial" 2
    (List.length
       (List.filter (fun r -> r.Ma.r_w = 0 && r.Ma.r_metric = "pool.test.spread") m.Ma.rows));
  (* window 0's percentile cells, as the dashboard renders them *)
  let cells = List.hd (numbered_rows (Ma.render ~metric:"pool.test.spread" m)) in
  let union = Sink.sketch () in
  List.iter (List.iter (Sink.add union)) samples;
  List.iteri
    (fun i q ->
      Alcotest.(check string)
        (Printf.sprintf "p%g of the union" (100.0 *. q))
        (Printf.sprintf "%.6f" (Sink.quantile union q))
        (List.nth cells (6 + i)))
    [ 0.5; 0.99; 0.999 ]

let test_exception_propagates () =
  let f x = if x = 2 then failwith "trial boom" else x * 10 in
  (match Pool.map ~jobs:3 f [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected the trial failure to propagate"
  | exception Failure m -> Alcotest.(check string) "msg" "trial boom" m);
  (* the pool must stay usable after a failed batch *)
  Alcotest.(check (list int)) "recovers" [ 0; 10 ] (Pool.map ~jobs:2 f [ 0; 1 ])

let test_jobs_clamped () =
  Alcotest.(check (list int)) "jobs > n" [ 2; 4 ] (Pool.map ~jobs:16 (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "jobs = 0" [ 2 ] (Pool.map ~jobs:0 (fun x -> 2 * x) [ 1 ]);
  Alcotest.(check (list int)) "empty items" [] (Pool.map ~jobs:4 (fun x -> x) [])

let () =
  Alcotest.run "splay_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "results deterministic" `Quick test_results_deterministic;
          Alcotest.test_case "obs merge deterministic" `Quick test_obs_merge_deterministic;
          Alcotest.test_case "metrics plane merge deterministic" `Quick
            test_metrics_plane_merge_deterministic;
          Alcotest.test_case "merged quantiles exact" `Quick test_merged_quantiles_exact;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
        ] );
    ]
