(* The benchmark's own checks: its composed serve step is Harness.run,
   its flood is deterministic and complete, and its order statistics
   follow the documented rule. *)

open Perfbench
module H = Splay_serve.Harness
module L = Splay_serve.Load

(* The composed step must reproduce Harness.run byte for byte: the
   benchmark's serve scenario with a shorter load phase, and a small
   all-off one. *)
let serve_matches_harness () =
  let short = { Serve.scenario with H.load = { Serve.scenario.H.load with L.duration = 1.0 } } in
  let small =
    {
      H.default with
      H.nodes = 300;
      gateways = 16;
      load = { L.default with L.clients = 20_000; duration = 3.0; inflight = 16 };
    }
  in
  List.iter
    (fun (label, scenario, seed, rate) ->
      let expected = H.to_line (H.run scenario ~seed ~rate) in
      let got = H.to_line (Serve.step scenario ~seed ~rate).Serve.result in
      Alcotest.(check string) label expected got)
    [
      ("benchmark scenario, 1 s of load", short, 7, Serve.rate);
      ("small scenario, all optimisations off", small, 3, 1500.0);
    ]

let flood_deterministic () =
  let go mode = Flood.run ~nodes:3_000 ~mode ~seed:5 () in
  let a = go Flood.Seq and b = go Flood.Seq in
  let p = go (Flood.Par { parts = 2; domains = 1 }) in
  Alcotest.(check (list string)) "no check fails" [] (a.Phase.errors @ p.Phase.errors);
  Alcotest.(check (float 0.0)) "same seed, same p50" a.Phase.p50 b.Phase.p50;
  Alcotest.(check (float 0.0)) "same seed, same p99" a.Phase.p99 b.Phase.p99;
  Alcotest.(check int) "same seed, same coverage" a.Phase.ok b.Phase.ok;
  Alcotest.(check bool) "the flood reaches every node" true (a.Phase.ok = 3_000 && p.Phase.ok = 3_000)

(* statistics.quantiles(method="inclusive") gives these for 1..10 *)
let quantiles () =
  let xs = List.init 10 (fun i -> Float.of_int (i + 1)) in
  Alcotest.(check (float 1e-12)) "q1" 3.25 (Measure.quantile xs 0.25);
  Alcotest.(check (float 1e-12)) "median" 5.5 (Measure.median xs);
  Alcotest.(check (float 1e-12)) "q3" 7.75 (Measure.quantile xs 0.75);
  Alcotest.(check (float 1e-12)) "empty" 0.0 (Measure.quantile [] 0.5)

(* BENCHMARK.json names every metric the binary reports, with the same
   unit, and no other *)
let schema_matches_benchmark_json () =
  let ic = open_in "../../BENCHMARK.json" in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let count sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length json then acc
      else go (i + 1) (if String.sub json i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  let metrics = Phase.end_to_end @ Phase.per_layer in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check int) name 1 (count (Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\"" name unit)))
    metrics;
  Alcotest.(check int) "no other metric" (List.length metrics) (count "\"unit\":")

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "serve step reproduces Harness.run" `Quick serve_matches_harness;
          Alcotest.test_case "flood is deterministic and complete" `Quick flood_deterministic;
          Alcotest.test_case "quantiles" `Quick quantiles;
          Alcotest.test_case "BENCHMARK.json matches the reported metrics" `Quick
            schema_matches_benchmark_json;
        ] );
    ]
