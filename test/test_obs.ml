(* Tests for the observability layer: deterministic traces under a fixed
   seed, the zero-cost disabled mode, outcome-tagged RPC spans, the
   Engine.run statistics record, Rpc.options retries, and the diagnosable
   selection report. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl
open Support
module Apps = Splay_apps
module Obs = Splay_obs.Obs
module Ta = Splay_obs.Trace_analysis

(* {2 Fixture: a small Chord deployment through the controller} *)

let chord_config =
  { Apps.Chord.default_config with m = 16; stabilize_interval = 2.0; join_delay_per_position = 0.5 }

let run_chord_deployment ~seed =
  let p = Platform.create ~seed (Platform.Cluster 5) in
  Platform.run ~until:10_000.0 p (fun p ->
      let ctl = Platform.controller p in
      let dep =
        Controller.deploy ctl ~name:"chord"
          ~main:(Apps.Chord.app ~config:chord_config ~register:(fun _ -> ()))
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 8)
      in
      Env.sleep 40.0;
      Controller.undeploy dep);
  Engine.stats (Platform.engine p)

(* {2 Determinism} *)

let test_trace_deterministic () =
  let capture () =
    with_obs (fun () ->
        ignore (run_chord_deployment ~seed:7);
        (Obs.trace_jsonl (), Obs.metrics_jsonl ()))
  in
  let trace1, metrics1 = capture () in
  let trace2, metrics2 = capture () in
  Alcotest.(check bool) "trace non-empty" true (String.length trace1 > 0);
  Alcotest.(check string) "same seed, identical JSONL trace" trace1 trace2;
  Alcotest.(check string) "same seed, identical metrics" metrics1 metrics2;
  (* the trace spans every layer *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "trace mentions %s" needle) true
        (contains trace1 needle))
    [
      "\"name\":\"engine.spawn\"";
      "\"name\":\"rpc.call\"";
      "\"name\":\"rpc.serve\"";
      "\"name\":\"ctl.deploy\"";
      "\"name\":\"ctl.register_round\"";
      "\"name\":\"splayd.register\"";
    ];
  Alcotest.(check bool) "metrics mention engine.events" true
    (contains metrics1 "\"metric\":\"engine.events\"");
  (* causal linkage survives the controller deployment: every handler span
     has a cross-node parent (the caller's envelope context) *)
  let parsed = Ta.load trace1 in
  let serves = List.filter (fun sp -> sp.Ta.name = "rpc.serve") parsed.Ta.spans in
  Alcotest.(check bool) "deployment produced serve spans" true (serves <> []);
  List.iter
    (fun sp ->
      if sp.Ta.pid = 0 then
        Alcotest.failf "rpc.serve sid %d has no parent (pid 0)" sp.Ta.sid)
    serves

(* {2 Golden-trace regression} *)

(* The byte-exact trace and metrics of the seed-7 deployment, pinned as
   files: any unintended change to event ordering, RNG stream consumption
   or span/metric emission — e.g. a perturbation hook that is not strictly
   zero-cost when disabled — shows up here as a diff against the bytes the
   pre-existing code produced. Regenerate only after a deliberate behavior
   change:

     SPLAY_GOLDEN_DIR=$PWD/test/golden dune exec test/test_obs.exe -- test golden
*)
(* dune runtest runs with cwd = the test directory (where the (deps ...)
   copies land); `dune exec test/test_obs.exe` runs from the project root. *)
let golden_trace () = golden_file "chord_seed7.trace.jsonl"
let golden_metrics () = golden_file "chord_seed7.metrics.jsonl"

let test_golden_trace () =
  let trace, metrics =
    with_obs (fun () ->
        ignore (run_chord_deployment ~seed:7);
        (Obs.trace_jsonl (), Obs.metrics_jsonl ()))
  in
  match Sys.getenv_opt "SPLAY_GOLDEN_DIR" with
  | Some dir ->
      write_file (Filename.concat dir "chord_seed7.trace.jsonl") trace;
      write_file (Filename.concat dir "chord_seed7.metrics.jsonl") metrics;
      Printf.printf "regenerated golden files under %s\n" dir
  | None ->
      Alcotest.(check bool) "golden trace is byte-identical" true
        (read_file (golden_trace ()) = trace);
      Alcotest.(check bool) "golden metrics are byte-identical" true
        (read_file (golden_metrics ()) = metrics)

(* Pastry's message schedule pinned the same way: a controller-deployed
   Pastry ring on a small PlanetLab testbed, a short churn script replayed
   over it and a few lookups. Node references travel in every join,
   leafset and route reply, so a change to how they are encoded, decoded
   or learned that moves one byte, one RPC or one learned peer shows up
   here. Regenerated with the chord golden (same SPLAY_GOLDEN_DIR). *)
let pastry_config =
  {
    Apps.Pastry.default_config with
    join_delay_per_position = 0.2;
    rpc_timeout = 2.0;
    stabilize_interval = 3.0;
  }

let run_pastry_churn ~seed =
  Platform.run ~until:10_000.0 (Platform.create ~seed (Platform.Planetlab 12)) (fun p ->
      let ctl = Platform.controller p in
      let nodes = ref [] in
      let dep =
        Controller.deploy ctl ~name:"pastry"
          ~main:
            (Apps.Pastry.app ~config:pastry_config ~register:(fun x -> nodes := x :: !nodes))
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 8)
      in
      Env.sleep 10.0;
      let script =
        Splay_churn.Script.parse "at 2s join 3\nat 8s leave 3\nat 14s join 2\nat 18s leave 25%"
      in
      ignore (Splay_churn.Replayer.run_script dep script);
      let rng = Rng.create seed in
      for _ = 1 to 5 do
        Env.sleep 4.0;
        match List.filter (fun x -> not (Apps.Pastry.is_stopped x)) !nodes with
        | [] -> ()
        | live ->
            ignore (Apps.Pastry.lookup (Rng.pick_list rng live) (Rng.int rng (Misc.pow2 32)))
      done;
      Env.sleep 2.0;
      Controller.undeploy dep)

let test_golden_pastry_churn () =
  let trace, metrics =
    with_obs (fun () ->
        run_pastry_churn ~seed:7;
        (Obs.trace_jsonl (), Obs.metrics_jsonl ()))
  in
  match Sys.getenv_opt "SPLAY_GOLDEN_DIR" with
  | Some dir ->
      write_file (Filename.concat dir "pastry_churn_seed7.trace.jsonl") trace;
      write_file (Filename.concat dir "pastry_churn_seed7.metrics.jsonl") metrics;
      Printf.printf "regenerated pastry golden files under %s\n" dir
  | None ->
      Alcotest.(check bool) "pastry golden trace is byte-identical" true
        (read_file (golden_file "pastry_churn_seed7.trace.jsonl") = trace);
      Alcotest.(check bool) "pastry golden metrics are byte-identical" true
        (read_file (golden_file "pastry_churn_seed7.metrics.jsonl") = metrics)

(* The untraced fast path (recycled timer records, ring scheduling, no
   span emission) and the traced path share engine state. Running a whole
   deployment untraced first, then the traced golden run in the same
   process, pins that the fast path leaves no residue — warm caches,
   registry growth, DLS state — that could perturb a later traced run. *)
let test_golden_after_untraced_run () =
  ignore (run_chord_deployment ~seed:7);
  let trace, metrics =
    with_obs (fun () ->
        ignore (run_chord_deployment ~seed:7);
        (Obs.trace_jsonl (), Obs.metrics_jsonl ()))
  in
  if Sys.getenv_opt "SPLAY_GOLDEN_DIR" = None then begin
    Alcotest.(check bool) "golden trace identical after untraced warm-up" true
      (read_file (golden_trace ()) = trace);
    Alcotest.(check bool) "golden metrics identical after untraced warm-up" true
      (read_file (golden_metrics ()) = metrics)
  end

(* {2 Metrics plane: windowed rollups} *)

module Ma = Splay_obs.Metrics_analysis

(* Arm only the metrics plane (tracing stays off unless [trace]), with a
   clean rollup ring, restoring the all-off default afterwards. *)
let with_metrics ?(trace = false) f =
  Obs.reset ();
  Obs.Rollup.clear ();
  Obs.enabled := trace;
  Obs.metrics_enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := false;
      Obs.metrics_enabled := false;
      Obs.Rollup.clear ();
      Obs.reset ())
    f

let test_rollup_quantile_accuracy () =
  with_metrics (fun () ->
      let h = Obs.histogram "test.ru.acc" in
      (* uniform 0.001 .. 10.0: known quantiles across 14 octaves *)
      for i = 1 to 10_000 do
        Obs.observe h (Float.of_int i /. 1000.0)
      done;
      Alcotest.(check int) "every sample in the cumulative table" 10_000 (Obs.Rollup.count h);
      let check_q q expect =
        let v = Obs.Rollup.quantile h q in
        Alcotest.(check bool)
          (Printf.sprintf "p%g = %.4f within 7%% of %.4f" (q *. 100.0) v expect)
          true
          (Float.abs (v -. expect) <= 0.07 *. expect)
      in
      check_q 0.5 5.0;
      check_q 0.9 9.0;
      check_q 0.99 9.9;
      check_q 0.999 9.99;
      check_q 0.0 0.001;
      (* the exact max clamps the top bucket: q1 is exact *)
      Alcotest.(check (float 1e-9)) "q1 is the exact max" 10.0 (Obs.Rollup.quantile h 1.0))

(* One histogram: a metrics-plane histogram is a Sink, so the same stream
   reads the same everywhere — observed directly, or observed by two
   captured trials and absorbed. *)
let test_rollup_matches_sink_sketch () =
  let module Sink = Splay_stats.Sink in
  let sample i = Float.of_int ((i * 7919) mod 4001) /. 997.0 in
  let same what k h =
    List.iter
      (fun q ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s q=%g" what q)
          (Sink.quantile k q) (Obs.Rollup.quantile h q))
      [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ];
    Alcotest.(check int) (what ^ " count") (Sink.count k) (Obs.Rollup.count h)
  in
  with_metrics (fun () ->
      let h = Obs.histogram "test.ru.sink" in
      let k = Sink.sketch () in
      for i = 1 to 5_000 do
        Obs.observe h (sample i);
        Sink.add k (sample i)
      done;
      same "direct" k h);
  with_metrics (fun () ->
      let h = Obs.histogram "test.ru.sink" in
      let k = Sink.sketch () in
      let trial ids_base lo hi =
        snd
          (Obs.capture ~ids_base (fun () ->
               for i = lo to hi do
                 Obs.observe h (sample i)
               done))
      in
      let s1 = trial (1 lsl 24) 1 2_000 and s2 = trial (2 lsl 24) 2_001 5_000 in
      for i = 1 to 5_000 do
        Sink.add k (sample i)
      done;
      Obs.absorb s1;
      Obs.absorb s2;
      same "absorbed" k h)

(* A metrics-on sample lands in two sinks, the run-cumulative cell and
   the current window's, and allocates nothing once both exist. *)
let test_observe_allocates_nothing () =
  with_metrics (fun () ->
      let h = Obs.histogram "test.ru.alloc" in
      let xs = [ 0.25; 3.0; 0.0; 1e9; 7.5 ] in
      List.iter (Obs.observe h) xs;
      let before = Gc.minor_words () in
      let rec feed = function [] -> () | x :: r -> Obs.observe h x; feed r in
      for _ = 1 to 10_000 do
        feed xs
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "50k metrics-on samples allocate %.0f minor words" words)
        true (words < 100.0);
      Alcotest.(check int) "every sample counted" 50_005 (Obs.Rollup.count h))

let test_rollup_zero_bucket () =
  with_metrics (fun () ->
      let h = Obs.histogram "test.ru.zero" in
      (* zero and negative samples (same-instant waits) share bucket 0 and
         must not corrupt the log-bucket table *)
      Obs.observe h 0.0;
      Obs.observe h (-3.0);
      Obs.observe h 0.0;
      Alcotest.(check int) "counted" 3 (Obs.Rollup.count h);
      (* bucket 0's representative is 0.0; the exact min survives in the
         rendered row's "min" field, not in the quantiles *)
      Alcotest.(check (float 1e-9)) "bucket-0 median" 0.0 (Obs.Rollup.quantile h 0.5);
      Alcotest.(check (float 1e-9)) "q1 stays in the zero bucket" 0.0 (Obs.Rollup.quantile h 1.0);
      let dump = Obs.metrics_plane_jsonl () in
      Alcotest.(check bool) "exact min rendered on the cumulative row" true
        (contains dump "\"min\":-3"))

let test_rollup_capture_merge () =
  with_metrics (fun () ->
      let h = Obs.histogram "test.ru.merge" in
      (* two captured trials observing disjoint halves of one distribution:
         the absorbed cumulative table must behave like the union *)
      let (), s1 =
        Obs.capture ~ids_base:(1 lsl 24) (fun () ->
            for i = 1 to 1000 do
              Obs.observe h (Float.of_int i /. 1000.0)
            done)
      in
      let (), s2 =
        Obs.capture ~ids_base:(2 lsl 24) (fun () ->
            for i = 1001 to 2000 do
              Obs.observe h (Float.of_int i /. 1000.0)
            done)
      in
      Alcotest.(check int) "nothing recorded here before absorb" 0 (Obs.Rollup.count h);
      Obs.absorb s1;
      Obs.absorb s2;
      Alcotest.(check int) "merged cumulative count" 2000 (Obs.Rollup.count h);
      let v = Obs.Rollup.quantile h 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "merged median %.4f within 7%% of 1.0" v)
        true
        (Float.abs (v -. 1.0) <= 0.07))

let test_rollup_window_rotation () =
  with_metrics (fun () ->
      (* drive the ring off a fake clock; any test needing the engine's
         clock re-installs it via Engine.create *)
      let t = { Obs.v = 1.0 } in
      Obs.set_clock t;
      let c = Obs.counter "test.ru.ticks" in
      let h = Obs.histogram "test.ru.lat" in
      Obs.incr c;
      Obs.observe h 0.010;
      t.v <- 25.0;
      Obs.incr c;
      t.v <- 47.0;
      (* w4 displaces w0 from the 4-slot ring: w0 is rendered, not lost *)
      Obs.observe h 0.020;
      let rows = Obs.metrics_plane_jsonl () in
      List.iter
        (fun w ->
          Alcotest.(check bool) (Printf.sprintf "window %d rendered" w) true
            (contains rows (Printf.sprintf "\"w\":%d" w)))
        [ 0; 2; 4 ];
      Alcotest.(check bool) "no phantom window" false (contains rows "\"w\":1");
      (* a clock reading behind the newest window clamps into it instead of
         corrupting an already-rendered one *)
      t.v <- 3.0;
      Obs.incr c;
      Alcotest.(check bool) "w0 not re-opened" false
        (contains (Obs.metrics_plane_jsonl ()) "\"w\":0,\"n\":2");
      let dump = Obs.metrics_plane_jsonl () in
      Alcotest.(check bool) "schema header" true
        (contains dump "\"schema\":\"splay-metrics/2\"");
      Alcotest.(check bool) "cumulative rows carry w:-1" true (contains dump "\"w\":-1");
      (* the three counter increments all survived the rotation *)
      let m = Ma.load dump in
      let total =
        List.fold_left
          (fun acc r ->
            if r.Ma.r_metric = "test.ru.ticks" && r.Ma.r_w >= 0 then
              acc + int_of_string (List.assoc "n" r.Ma.r_fields)
            else acc)
          0 m.Ma.rows
      in
      Alcotest.(check int) "windowed counts add up across rotation" 3 total;
      Obs.set_clock { Obs.v = 0.0 })

(* {2 Metrics plane: golden dump and dashboard} *)

(* The seed-7 chord deployment again, this time through the metrics plane
   only: the JSONL dump and the [splay top] dashboard rendered from it are
   pinned byte-for-byte, same regeneration story as the golden trace. *)
let golden_metricsplane () = golden_file "chord_seed7.metricsplane.jsonl"
let golden_top () = golden_file "chord_seed7.top.txt"

let test_golden_metrics_plane () =
  let dump =
    with_metrics (fun () ->
        ignore (run_chord_deployment ~seed:7);
        Obs.metrics_plane_jsonl ())
  in
  let top = Ma.render (Ma.load dump) in
  match Sys.getenv_opt "SPLAY_GOLDEN_DIR" with
  | Some dir ->
      write_file (Filename.concat dir "chord_seed7.metricsplane.jsonl") dump;
      write_file (Filename.concat dir "chord_seed7.top.txt") top;
      Printf.printf "regenerated metrics-plane golden files under %s\n" dir
  | None ->
      Alcotest.(check bool) "dump mentions rpc.latency" true (contains dump "rpc.latency");
      Alcotest.(check bool) "golden metrics-plane dump is byte-identical" true
        (read_file (golden_metricsplane ()) = dump);
      Alcotest.(check bool) "golden splay-top render is byte-identical" true
        (read_file (golden_top ()) = top)

(* The --slo column: the violation rate is read off the merged buckets.
   Bucket 161 is [1, 1.125) and bucket 169 [2, 2.25); half the samples
   sit in each, and inside a bucket the share is linear. *)
let slo_dump rows =
  String.concat "\n" ("{\"schema\":\"splay-metrics/2\",\"window\":10}" :: rows) ^ "\n"

let test_slo_violation_rate () =
  let m =
    Ma.load
      (slo_dump
         [
           "{\"m\":\"lat\",\"kind\":\"hist\",\"w\":0,\"n\":100,\"sum\":160.0,\"min\":1,\"max\":2.25,\"buckets\":\"161:50,169:50\"}";
         ])
  in
  let vr ?(metric = "lat") thr =
    let top = Ma.render ~slo:(metric, thr) m in
    Alcotest.(check bool) "slo column rendered" true (contains top "slo-viol");
    List.nth (List.hd (numbered_rows top)) 9
  in
  Alcotest.(check string) "below min: everything violates" "100.00%" (vr 0.5);
  Alcotest.(check string) "at max: nothing violates" "0.00%" (vr 2.25);
  Alcotest.(check string) "between the buckets" "50.00%" (vr 1.5);
  Alcotest.(check string) "mid lower bucket" "75.00%" (vr 1.0625);
  Alcotest.(check string) "mid upper bucket" "25.00%" (vr 2.125);
  Alcotest.(check string) "empty histogram renders -" "-" (vr ~metric:"nope" 1.0)

(* Outside input: a hist row whose buckets are out of range, negative, not
   numbers or short of its n is malformed and skipped, never an exception;
   a dump of the bucketless first schema is refused. *)
let test_malformed_hist_rows () =
  let row n b =
    Printf.sprintf
      "{\"m\":\"lat\",\"kind\":\"hist\",\"w\":0,\"n\":%d,\"sum\":1.0,\"min\":1,\"max\":2,\"buckets\":%S}" n b
  in
  List.iter
    (fun (what, r) ->
      let m = Ma.load (slo_dump [ r ]) in
      Alcotest.(check int) (what ^ ": row skipped") 0 (List.length m.Ma.rows);
      ignore (Ma.render ~slo:("lat", 1.5) m))
    [
      ("index past the table", row 1 "513:1");
      ("negative index", row 1 "-1:1");
      ("negative count", row 1 "161:-1");
      ("zero count", row 0 "161:0");
      ("not a number", row 1 "161:x");
      ("no colon", row 1 "161");
      ("counts short of n", row 3 "161:1,169:1");
      ("counts over n", row 1 "161:1,169:1");
      ("no buckets", "{\"m\":\"lat\",\"kind\":\"hist\",\"w\":0,\"n\":1}");
    ];
  let ok = Ma.load (slo_dump [ row 2 "161:1,169:1" ]) in
  Alcotest.(check int) "a well-formed row loads" 1 (List.length ok.Ma.rows);
  match Ma.load "{\"schema\":\"splay-metrics/1\",\"window\":10}\n" with
  | _ -> Alcotest.fail "a splay-metrics/1 dump must be refused"
  | exception Failure msg ->
      Alcotest.(check bool) "the message names the schema" true (contains msg "splay-metrics/1")

let test_metrics_only_no_spans () =
  let dump, spans, trace =
    with_metrics (fun () ->
        ignore (run_chord_deployment ~seed:7);
        (Obs.metrics_plane_jsonl (), Obs.span_count (), Obs.trace_jsonl ()))
  in
  Alcotest.(check int) "no spans started" 0 spans;
  Alcotest.(check string) "trace empty" "" trace;
  Alcotest.(check bool) "histogram rows recorded" true (contains dump "\"kind\":\"hist\"")

(* {2 Trace cap} *)

(* Capping the trace must drop the *suffix* only: the stored prefix stays
   byte-identical to the uncapped golden trace (ids and context advance as
   if nothing were dropped), and every refused record is counted. *)
let test_trace_cap () =
  let cap = 100 in
  let capped, dropped =
    Fun.protect
      ~finally:(fun () -> Obs.set_trace_cap 0)
      (fun () ->
        Obs.set_trace_cap cap;
        with_obs (fun () ->
            ignore (run_chord_deployment ~seed:7);
            (Obs.trace_jsonl (), Obs.trace_dropped ())))
  in
  if Sys.getenv_opt "SPLAY_GOLDEN_DIR" = None then begin
    let golden = read_file (golden_trace ()) in
    let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' golden) in
    let total = List.length lines in
    Alcotest.(check bool) (Printf.sprintf "cap %d below the %d-record trace" cap total) true
      (total > cap);
    let prefix = String.concat "\n" (List.filteri (fun i _ -> i < cap) lines) ^ "\n" in
    Alcotest.(check string) "stored prefix byte-identical to the uncapped trace" prefix capped;
    Alcotest.(check int) "every record past the cap counted" (total - cap) dropped
  end

(* {2 Timestamp formatter} *)

(* The trace writer renders the clock by fixed-point integer emission;
   the contract is byte-equality with [Printf.sprintf "%.6f"]. Exercise
   the exact-tie cases (odd multiples of 2^-7 scale to ....5 microseconds,
   where round-half-even bites), the fallback ranges, and a seeded random
   sweep across the magnitudes a simulated clock visits. *)
let test_time_format_matches_printf () =
  let check v =
    let b = Buffer.create 32 in
    Obs.add_time_value b v;
    Alcotest.(check string)
      (Printf.sprintf "format of %h" v)
      (Printf.sprintf "%.6f" v) (Buffer.contents b)
  in
  check 0.0;
  List.iter check [ 1e-6; 0.1; 1.0; 40.0; 10_000.0; 123_456.789_012; 1e11 ];
  (* exact ties for round-half-even *)
  for i = 0 to 100 do
    check (Float.of_int ((2 * i) + 1) *. 0.0078125)
  done;
  (* fallback paths: negative zero, negative, tiny, huge, non-finite *)
  List.iter check [ -0.0; -1.5; 1e-7; 9e-7; 1e12; 5e13; infinity; neg_infinity ];
  (* powers of two sweep the full shift range of the fast path *)
  let p = ref 1e-6 in
  while !p < 1e12 do
    check !p;
    check (Float.pred !p);
    check (Float.succ !p);
    check (!p *. 1.5);
    p := !p *. 2.0
  done;
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 20_000 do
    let mag = 10.0 ** Float.of_int (Random.State.int st 18 - 6) in
    check (Random.State.float st mag)
  done

(* {2 Cross-node causality} *)

(* A 3-hop forwarding chain A -> B -> C -> D: each serve span must be a
   child of the caller's span on the previous node, and the whole chain
   must share one trace rooted at A's rpc.call. *)
let test_cross_node_linkage () =
  with_obs (fun () ->
      let eng = Engine.create ~seed:13 () in
      let tb = Testbed.cluster ~n:4 (Engine.rng eng) in
      let net = Net.create eng tb in
      let a = Env.create net ~me:(Addr.make 0 2000) in
      let b = Env.create net ~me:(Addr.make 1 2000) in
      let c = Env.create net ~me:(Addr.make 2 2000) in
      let d = Env.create net ~me:(Addr.make 3 2000) in
      let p_hop = Rpc.proc "hop" Rpc.no_args Codec.int in
      let forward env next =
        Rpc.handle env p_hop (fun () ->
            match next with
            | None -> 0
            | Some dst -> (
                match Rpc.invoke env dst p_hop () with
                | Ok v -> v
                | Error e -> Alcotest.failf "forward failed: %s" (Rpc.error_to_string e)))
      in
      forward b (Some c.Env.me);
      forward c (Some d.Env.me);
      forward d None;
      let ok = ref false in
      ignore
        (Env.thread a (fun () ->
             match Rpc.invoke a b.Env.me p_hop () with
             | Ok _ -> ok := true
             | Error e -> Alcotest.failf "chain failed: %s" (Rpc.error_to_string e)));
      ignore (Engine.run eng);
      Alcotest.(check bool) "chain completed" true !ok;
      let t = Ta.load (Obs.trace_jsonl ()) in
      let serves = List.filter (fun sp -> sp.Ta.name = "rpc.serve") t.Ta.spans in
      Alcotest.(check int) "one serve span per hop" 3 (List.length serves);
      List.iter
        (fun sp ->
          Alcotest.(check bool)
            (Printf.sprintf "serve sid %d has a cross-node parent" sp.Ta.sid)
            true (sp.Ta.pid <> 0))
        serves;
      (match serves with
      | first :: rest ->
          List.iter
            (fun sp -> Alcotest.(check int) "hops share one causal trace" first.Ta.tid sp.Ta.tid)
            rest
      | [] -> ());
      let rec root_of sp =
        match Hashtbl.find_opt t.Ta.by_sid sp.Ta.pid with
        | Some parent -> root_of parent
        | None -> sp
      in
      List.iter
        (fun sp ->
          let r = root_of sp in
          Alcotest.(check string) "ancestry reaches the client's call" "rpc.call" r.Ta.name;
          Alcotest.(check int) "that call is a root" 0 r.Ta.pid)
        serves;
      (* the causal chain is the critical path of the client's call: the
         span column of the printed per-hop breakdown *)
      let path = List.map (fun row -> List.nth row 1) (numbered_rows (printed (fun () -> Ta.print_critical_path t))) in
      Alcotest.(check (list string)) "alternating call/serve chain"
        [ "rpc.call"; "rpc.serve"; "rpc.call"; "rpc.serve"; "rpc.call"; "rpc.serve" ]
        path)

(* {2 Disabled mode} *)

let test_disabled_records_nothing () =
  Obs.reset ();
  Obs.enabled := false;
  let c = Obs.counter "test.disabled_counter" in
  let h = Obs.histogram "test.disabled_hist" in
  let g = Obs.gauge "test.disabled_gauge" in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let s = Obs.span "x" in
    Obs.finish s;
    Obs.incr c;
    Obs.observe h 1.0;
    Obs.gauge_set g 2.0
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "no per-site allocation when disabled (%.0f words)" allocated)
    true (allocated < 1_000.0);
  Alcotest.(check int) "no spans started" 0 (Obs.span_count ());
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Rollup.count h);
  Alcotest.(check string) "trace empty" "" (Obs.trace_jsonl ());
  Alcotest.(check string) "metrics empty" "" (Obs.metrics_jsonl ())

(* {2 RPC spans and options} *)

let p_echo = Rpc.proc "echo" (Rpc.arg Codec.int) Codec.int

let two_host_rpc ~seed f =
  let eng = Engine.create ~seed () in
  let tb = Testbed.cluster ~n:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let server = Env.create net ~me:(Addr.make 0 2000) in
  let client = Env.create net ~me:(Addr.make 1 2000) in
  Rpc.handle server p_echo Fun.id;
  f eng net server client;
  ignore (Engine.run eng)

let test_timeout_span () =
  with_obs (fun () ->
      let settled = ref false in
      two_host_rpc ~seed:3 (fun _eng net server client ->
          Testbed.set_host_up (Net.testbed net) 0 false;
          ignore
            (Env.thread client (fun () ->
                 (match Rpc.invoke client server.Env.me ~timeout:2.0 p_echo 0 with
                 | Error Rpc.Timeout -> ()
                 | _ -> Alcotest.fail "expected Timeout");
                 settled := true)));
      Alcotest.(check bool) "call settled" true !settled;
      let trace = Obs.trace_jsonl () in
      Alcotest.(check bool) "rpc.call span present" true (contains trace "\"name\":\"rpc.call\"");
      Alcotest.(check bool) "span outcome is timeout" true
        (contains trace "\"outcome\":\"timeout\"");
      Alcotest.(check int) "timeout counter" 1
        (Obs.counter_value (Obs.counter "rpc.timeouts")))

let test_retries () =
  with_obs (fun () ->
      two_host_rpc ~seed:5 (fun eng net server client ->
          Testbed.set_host_up (Net.testbed net) 0 false;
          ignore
            (Env.thread client (fun () ->
                 let t0 = Engine.now eng in
                 let r =
                   Rpc.invoke client server.Env.me
                     ~options:{ Rpc.default_options with timeout = 1.0; retries = 2 }
                     p_echo 0
                 in
                 (match r with
                 | Error Rpc.Timeout -> ()
                 | _ -> Alcotest.fail "expected Timeout after retries");
                 let elapsed = Engine.now eng -. t0 in
                 Alcotest.(check bool)
                   (Printf.sprintf "three attempts took %.1fs" elapsed)
                   true
                   (elapsed >= 3.0 && elapsed < 3.5))));
      Alcotest.(check int) "two retries recorded" 2
        (Obs.counter_value (Obs.counter "rpc.retries"));
      Alcotest.(check int) "one logical call" 1 (Obs.counter_value (Obs.counter "rpc.calls")))

(* Exponential backoff with seeded jitter (the [splay check] satellite of
   the retry policy): pause before retry [n] is [backoff * 2^(n-1)],
   stretched by a uniform factor in [1, 1+jitter] drawn from the
   instance's dedicated RPC stream. *)
let backoff_elapsed ~seed ~jitter =
  let elapsed = ref nan in
  let trace =
    with_obs (fun () ->
        two_host_rpc ~seed (fun eng net server client ->
            Testbed.set_host_up (Net.testbed net) 0 false;
            ignore
              (Env.thread client (fun () ->
                   let t0 = Engine.now eng in
                   (match
                      Rpc.invoke client server.Env.me
                        ~options:
                          { Rpc.timeout = 1.0; retries = 2; backoff = 0.5; backoff_jitter = jitter }
                        p_echo 0
                    with
                   | Error Rpc.Timeout -> ()
                   | _ -> Alcotest.fail "expected Timeout after retries");
                   elapsed := Engine.now eng -. t0)));
        Obs.trace_jsonl ())
  in
  (!elapsed, trace)

let test_backoff_timing () =
  let elapsed, trace = backoff_elapsed ~seed:9 ~jitter:0.0 in
  (* attempts start at t = 0, 1.5 (1s timeout + 0.5s pause) and 3.5
     (+ 1s timeout + 1s doubled pause); the last deadline lands at 4.5 *)
  Alcotest.(check (float 1e-6)) "jitter-free exponential schedule" 4.5 elapsed;
  Alcotest.(check bool) "retry spans in trace" true (contains trace "\"name\":\"rpc.retry\"");
  Alcotest.(check bool) "backoff delay recorded on the span" true
    (contains trace "\"delay\":\"0.500000\"")

let test_backoff_jitter_deterministic () =
  let e1, _ = backoff_elapsed ~seed:9 ~jitter:0.5 in
  let e2, _ = backoff_elapsed ~seed:9 ~jitter:0.5 in
  Alcotest.(check (float 1e-9)) "same seed, same schedule" e1 e2;
  (* total stretch is bounded by jitter * (sum of base pauses) = 0.5 * 1.5 *)
  Alcotest.(check bool)
    (Printf.sprintf "jitter stretches within bounds (%.3fs)" e1)
    true
    (e1 > 4.5 && e1 <= 4.5 +. (0.5 *. 1.5) +. 1e-9)

let test_ok_span_outcome () =
  with_obs (fun () ->
      two_host_rpc ~seed:8 (fun _eng _net server client ->
          ignore
            (Env.thread client (fun () ->
                 match Rpc.invoke client server.Env.me p_echo 42 with
                 | Ok _ -> ()
                 | Error e -> Alcotest.failf "echo failed: %s" (Rpc.error_to_string e))));
      let trace = Obs.trace_jsonl () in
      Alcotest.(check bool) "ok outcome recorded" true (contains trace "\"outcome\":\"ok\"");
      Alcotest.(check bool) "serve span present" true (contains trace "\"name\":\"rpc.serve\"");
      Alcotest.(check bool) "serve time observed" true
        (Obs.Rollup.count (Obs.histogram "rpc.serve_time") >= 1))

(* {2 Engine.run statistics} *)

let test_run_stats () =
  let eng = Engine.create ~seed:1 () in
  let fired = ref 0 in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:(Float.of_int i) (fun () -> incr fired))
  done;
  let st = Engine.run eng in
  Alcotest.(check int) "five events fired" 5 st.Engine.events_fired;
  Alcotest.(check int) "callbacks ran" 5 !fired;
  Alcotest.(check (float 1e-9)) "final clock at last event" 5.0 st.Engine.final_clock;
  Alcotest.(check bool) "queue depth high-water" true (st.Engine.max_queue_depth >= 5);
  let again = Engine.stats eng in
  Alcotest.(check int) "stats are cumulative" 5 again.Engine.events_fired

(* {2 Selection report} *)

let with_ctl_platform f =
  Platform.run ~until:1000.0 (Platform.create ~seed:11 (Platform.Cluster 6)) (fun p ->
      f (Platform.controller p))

(* {2 Controller log collection} *)

let test_log_collection () =
  let records = ref None and records_quiet = ref None in
  with_ctl_platform (fun ctl ->
      let main env =
        Log.info (Env.log env) "up at position %d" env.Env.position;
        Log.debug (Env.log env) "below the default threshold"
      in
      let dep =
        Controller.deploy ctl ~name:"logger" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 4)
      in
      Env.sleep 5.0;
      let logs = Controller.job_logs dep in
      let path = Filename.temp_file "splay-logs" ".jsonl" in
      Deploy.dump_logs logs ~path;
      let jsonl = read_file path in
      Sys.remove path;
      records := Some (Deploy.log_records logs, jsonl, Deploy.log_dropped logs);
      (* a second job deployed at Warn collects nothing: Info records are
         filtered at the emitting node, not at the collector *)
      let dep2 =
        Controller.deploy ctl ~name:"quiet" ~log_level:Log.Warn ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 4)
      in
      Env.sleep 5.0;
      records_quiet := Some (Deploy.log_records (Controller.job_logs dep2));
      Controller.undeploy dep;
      Controller.undeploy dep2);
  (match !records with
  | None -> Alcotest.fail "deployment did not run"
  | Some (recs, jsonl, dropped) ->
      Alcotest.(check int) "one Info record per instance" 4 (List.length recs);
      Alcotest.(check int) "nothing dropped" 0 dropped;
      let nodes = List.sort_uniq compare (List.map (fun r -> r.Deploy.lr_node) recs) in
      Alcotest.(check int) "records tagged with distinct nodes" 4 (List.length nodes);
      List.iter
        (fun r ->
          (match r.Deploy.lr_level with
          | Log.Info -> ()
          | l -> Alcotest.failf "unexpected level %s" (Log.level_to_string l));
          Alcotest.(check bool) "formatted message" true
            (contains r.Deploy.lr_msg "up at position"))
        recs;
      Alcotest.(check bool) "jsonl carries L records" true (contains jsonl "\"ev\":\"L\"");
      Alcotest.(check bool) "jsonl carries the level" true (contains jsonl "\"level\":\"info\""));
  (match !records_quiet with
  | None -> Alcotest.fail "second deployment did not run"
  | Some recs -> Alcotest.(check int) "Warn threshold filters at the node" 0 (List.length recs))

let test_select_report () =
  (* six daemons, one host down *)
  let tb = Testbed.cluster ~n:6 (Rng.create 11) in
  let select ?criteria n =
    Deploy.select (Rng.create 1) ?criteria ~alive:(fun h -> h <> 5) ~host:(Testbed.host tb)
      (List.init 6 Fun.id) n
  in
  (* no criteria: everything alive matches *)
  let chosen, rep = select 4 in
  Alcotest.(check int) "four chosen" 4 (List.length chosen);
  Alcotest.(check int) "alive" 5 rep.Deploy.sel_alive;
  Alcotest.(check int) "all alive matched" 5 rep.Deploy.sel_matched;
  Alcotest.(check int) "one dead" 1 rep.Deploy.sel_dead;
  Alcotest.(check bool) "the dead one is not chosen" false (List.mem 5 chosen);
  (* an unsatisfiable criterion: the report says which one rejected *)
  let chosen, rep = select ~criteria:[ Deploy.Min_bandwidth infinity ] 4 in
  Alcotest.(check int) "nothing selectable" 0 (List.length chosen);
  Alcotest.(check int) "nothing matched" 0 rep.Deploy.sel_matched;
  (match rep.Deploy.sel_rejected with
  | [ ("min_bandwidth", n) ] -> Alcotest.(check int) "all alive charged to min_bandwidth" 5 n
  | other -> Alcotest.failf "unexpected rejection report (%d entries)" (List.length other));
  (* the same through the controller: its daemon set, with one host down,
     feeds the selection, and the downed daemon is never chosen *)
  Platform.run ~until:1000.0 (Platform.create ~seed:11 (Platform.Cluster 6)) (fun p ->
      let down = Daemon.host (List.hd (Platform.daemons p)) in
      Testbed.set_host_up (Platform.testbed p) down false;
      let t0 = Platform.now p in
      let dep =
        Controller.deploy (Platform.controller p) ~superset:1.0 ~register_timeout:60.0 ~name:"select"
          ~main:(fun _ -> ())
          (Descriptor.make 5)
      in
      Alcotest.(check int) "five deployed" 5 (Controller.live_count dep);
      (* a registration sent to the downed daemon would wait out its timeout *)
      Alcotest.(check bool) "no registration timed out" true (Platform.now p -. t0 < 60.0);
      List.iter
        (fun (d, _, _) ->
          Alcotest.(check bool) "the downed daemon is never chosen" true (Daemon.host d <> down))
        (Controller.members dep))

let () =
  Alcotest.run "splay_obs"
    [
      ( "obs",
        [
          Alcotest.test_case "deterministic trace" `Quick test_trace_deterministic;
          Alcotest.test_case "golden trace unchanged" `Quick test_golden_trace;
          Alcotest.test_case "golden after untraced run" `Quick test_golden_after_untraced_run;
          Alcotest.test_case "golden pastry churn unchanged" `Quick test_golden_pastry_churn;
          Alcotest.test_case "time format matches printf" `Quick test_time_format_matches_printf;
          Alcotest.test_case "cross-node linkage" `Quick test_cross_node_linkage;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
        ] );
      ( "rollup",
        [
          Alcotest.test_case "quantile accuracy" `Quick test_rollup_quantile_accuracy;
          Alcotest.test_case "same quantiles as Sink.sketch" `Quick test_rollup_matches_sink_sketch;
          Alcotest.test_case "observe allocates nothing" `Quick test_observe_allocates_nothing;
          Alcotest.test_case "zero bucket" `Quick test_rollup_zero_bucket;
          Alcotest.test_case "capture merge" `Quick test_rollup_capture_merge;
          Alcotest.test_case "window rotation" `Quick test_rollup_window_rotation;
          Alcotest.test_case "golden metrics plane" `Quick test_golden_metrics_plane;
          Alcotest.test_case "slo violation rate" `Quick test_slo_violation_rate;
          Alcotest.test_case "malformed hist rows" `Quick test_malformed_hist_rows;
          Alcotest.test_case "metrics-only records no spans" `Quick test_metrics_only_no_spans;
          Alcotest.test_case "trace cap" `Quick test_trace_cap;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "timeout span" `Quick test_timeout_span;
          Alcotest.test_case "retries" `Quick test_retries;
          Alcotest.test_case "backoff timing" `Quick test_backoff_timing;
          Alcotest.test_case "backoff jitter deterministic" `Quick
            test_backoff_jitter_deterministic;
          Alcotest.test_case "ok outcome" `Quick test_ok_span_outcome;
        ] );
      ("engine", [ Alcotest.test_case "run stats" `Quick test_run_stats ]);
      ( "controller",
        [
          Alcotest.test_case "selection report" `Quick test_select_report;
          Alcotest.test_case "log collection" `Quick test_log_collection;
        ] );
    ]
