(* Tests for the observability layer: deterministic traces under a fixed
   seed, the zero-cost disabled mode, outcome-tagged RPC spans, the
   Engine.run statistics record, Rpc.options retries, and the diagnosable
   selection report. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl
module Apps = Splay_apps
module Obs = Splay_obs.Obs
module Ta = Splay_obs.Trace_analysis

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every test leaves the global switch off so the rest of the suite runs
   uninstrumented. *)
let with_obs f =
  Obs.reset ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

(* {2 Fixture: a small Chord deployment through the controller} *)

let chord_config =
  { Apps.Chord.default_config with m = 16; stabilize_interval = 2.0; join_delay_per_position = 0.5 }

let run_chord_deployment ~seed =
  let eng = Engine.create ~seed () in
  let tb0 = Testbed.cluster ~n:5 (Engine.rng eng) in
  let tb, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create eng tb in
  let ctl = Controller.create net ~host:ctl_host in
  let daemons = Controller.boot_daemons ctl (List.init 5 Fun.id) in
  ignore
    (Env.thread (Controller.env ctl) (fun () ->
         Fun.protect
           ~finally:(fun () ->
             List.iter Daemon.shutdown daemons;
             ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
           (fun () ->
             let dep =
               Controller.deploy ctl ~name:"chord"
                 ~main:(Apps.Chord.app ~config:chord_config ~register:(fun _ -> ()))
                 (Descriptor.make ~bootstrap:(Descriptor.Head 1) 8)
             in
             Env.sleep 40.0;
             Controller.undeploy dep)));
  let stats = Engine.run ~until:10_000.0 eng in
  Engine.check_crashed eng;
  stats

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
let golden_file name = if Sys.file_exists "golden" then "golden/" ^ name else "test/golden/" ^ name
let golden_trace () = golden_file "chord_seed7.trace.jsonl"
let golden_metrics () = golden_file "chord_seed7.metrics.jsonl"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

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

(* One histogram: the metrics plane and Sink.sketch share the bucket table
   and its quantile rule, so the same stream reads the same everywhere. *)
let test_rollup_matches_sink_sketch () =
  with_metrics (fun () ->
      let h = Obs.histogram "test.ru.sink" in
      let k = Splay_stats.Sink.sketch () in
      for i = 1 to 5_000 do
        let v = Float.of_int ((i * 7919) mod 4001) /. 997.0 in
        Obs.observe h v;
        Splay_stats.Sink.add k v
      done;
      List.iter
        (fun q ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "q=%g" q)
            (Splay_stats.Sink.quantile k q) (Obs.Rollup.quantile h q))
        [ 0.5; 0.9; 0.99; 0.999 ])

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
      let t = ref 1.0 in
      Obs.set_clock (fun () -> !t);
      let c = Obs.counter "test.ru.ticks" in
      let h = Obs.histogram "test.ru.lat" in
      Obs.incr c;
      Obs.observe h 0.010;
      t := 25.0;
      Obs.incr c;
      t := 47.0;
      (* w4 displaces w0 from the 4-slot ring: w0 is rendered, not lost *)
      Obs.observe h 0.020;
      let rows = Obs.Rollup.rows () in
      List.iter
        (fun w ->
          Alcotest.(check bool) (Printf.sprintf "window %d rendered" w) true
            (contains rows (Printf.sprintf "\"w\":%d" w)))
        [ 0; 2; 4 ];
      Alcotest.(check bool) "no phantom window" false (contains rows "\"w\":1");
      (* a clock reading behind the newest window clamps into it instead of
         corrupting an already-rendered one *)
      t := 3.0;
      Obs.incr c;
      Alcotest.(check bool) "w0 not re-opened" false
        (contains (Obs.Rollup.rows ()) "\"w\":0,\"n\":2");
      let dump = Obs.metrics_plane_jsonl () in
      Alcotest.(check bool) "schema header" true
        (contains dump "\"schema\":\"splay-metrics/1\"");
      Alcotest.(check bool) "cumulative rows carry w:-1" true (contains dump "\"w\":-1");
      (* the three counter increments all survived the rotation *)
      let m = Ma.load dump in
      let total =
        List.fold_left
          (fun acc w ->
            List.fold_left
              (fun acc r -> acc + Option.value ~default:0 (Ma.int_field r "n"))
              acc
              (Ma.rows_of m ~w "test.ru.ticks"))
          0 m.Ma.windows
      in
      Alcotest.(check int) "windowed counts add up across rotation" 3 total;
      Obs.set_clock (fun () -> 0.0))

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

(* The --slo column: violation rate reconstructed from rendered quantiles
   by piecewise-linear CDF interpolation — exact at the recorded points,
   linear between them, saturating outside [min, max]. *)
let test_slo_violation_rate () =
  let dump =
    "{\"schema\":\"splay-metrics/1\",\"window\":10}\n"
    ^ "{\"m\":\"lat\",\"kind\":\"hist\",\"w\":0,\"n\":100,\"sum\":100.0,\"min\":0.0,\"max\":2.0,\"p50\":1.0,\"p90\":1.5,\"p99\":1.8,\"p999\":1.9}\n"
  in
  let m = Ma.load dump in
  let h = Ma.hist_agg (Ma.rows_of m ~w:0 "lat") in
  let vr thr = Ma.violation_rate h ~threshold:thr in
  Alcotest.(check (float 1e-9)) "below min: everything violates" 1.0 (vr (-1.0));
  Alcotest.(check (float 1e-9)) "at max: nothing violates" 0.0 (vr 2.0);
  Alcotest.(check (float 1e-9)) "exact at p50" 0.5 (vr 1.0);
  Alcotest.(check (float 1e-9)) "interpolated min..p50" 0.75 (vr 0.5);
  Alcotest.(check (float 1e-9)) "interpolated p50..p90" 0.3 (vr 1.25);
  Alcotest.(check bool) "empty histogram renders nan" true
    (Float.is_nan (Ma.violation_rate (Ma.hist_agg []) ~threshold:1.0));
  let top = Ma.render ~slo:("lat", 1.0) m in
  Alcotest.(check bool) "slo column rendered" true (contains top "slo-viol");
  Alcotest.(check bool) "window violation rendered" true (contains top "50.00%")

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
      let forward env next =
        Rpc.server env
          [
            ( "hop",
              fun args ->
                match next with
                | None -> Codec.Int 0
                | Some dst -> (
                    match Rpc.a_call env dst "hop" args with
                    | Ok v -> v
                    | Error e -> Alcotest.failf "forward failed: %s" (Rpc.error_to_string e)) );
          ]
      in
      forward b (Some c.Env.me);
      forward c (Some d.Env.me);
      forward d None;
      let ok = ref false in
      ignore
        (Env.thread a (fun () ->
             match Rpc.a_call a b.Env.me "hop" [] with
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
      (* the causal chain is the critical path of the client's call *)
      match Ta.slowest_root t with
      | None -> Alcotest.fail "no root span"
      | Some root ->
          let path = List.map (fun sp -> sp.Ta.name) (Ta.critical_path root) in
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
  Alcotest.(check int) "histogram untouched" 0 (Obs.histogram_count h);
  Alcotest.(check string) "trace empty" "" (Obs.trace_jsonl ());
  Alcotest.(check string) "metrics empty" "" (Obs.metrics_jsonl ())

(* {2 RPC spans and options} *)

let two_host_rpc ~seed f =
  let eng = Engine.create ~seed () in
  let tb = Testbed.cluster ~n:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let server = Env.create net ~me:(Addr.make 0 2000) in
  let client = Env.create net ~me:(Addr.make 1 2000) in
  Rpc.server server [ ("echo", fun args -> Codec.List args) ];
  f eng net server client;
  ignore (Engine.run eng)

let test_timeout_span () =
  with_obs (fun () ->
      let settled = ref false in
      two_host_rpc ~seed:3 (fun _eng net server client ->
          Net.set_host_up net 0 false;
          ignore
            (Env.thread client (fun () ->
                 (match Rpc.a_call client server.Env.me ~timeout:2.0 "echo" [] with
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
          Net.set_host_up net 0 false;
          ignore
            (Env.thread client (fun () ->
                 let t0 = Engine.now eng in
                 let r =
                   Rpc.a_call client server.Env.me
                     ~options:{ Rpc.default_options with timeout = 1.0; retries = 2 }
                     "echo" []
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
            Net.set_host_up net 0 false;
            ignore
              (Env.thread client (fun () ->
                   let t0 = Engine.now eng in
                   (match
                      Rpc.a_call client server.Env.me
                        ~options:
                          { Rpc.timeout = 1.0; retries = 2; backoff = 0.5; backoff_jitter = jitter }
                        "echo" []
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
                 match Rpc.a_call client server.Env.me "echo" [ Codec.Int 42 ] with
                 | Ok _ -> ()
                 | Error e -> Alcotest.failf "echo failed: %s" (Rpc.error_to_string e))));
      let trace = Obs.trace_jsonl () in
      Alcotest.(check bool) "ok outcome recorded" true (contains trace "\"outcome\":\"ok\"");
      Alcotest.(check bool) "serve span present" true (contains trace "\"name\":\"rpc.serve\"");
      Alcotest.(check bool) "serve time observed" true
        (Obs.histogram_count (Obs.histogram "rpc.serve_time") >= 1))

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
  let eng = Engine.create ~seed:11 () in
  let tb0 = Testbed.cluster ~n:6 (Engine.rng eng) in
  let tb, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create eng tb in
  let ctl = Controller.create net ~host:ctl_host in
  let daemons = Controller.boot_daemons ctl (List.init 6 Fun.id) in
  ignore
    (Env.thread (Controller.env ctl) (fun () ->
         Fun.protect
           ~finally:(fun () ->
             List.iter Daemon.shutdown daemons;
             ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
           (fun () -> f ctl)));
  ignore (Engine.run ~until:1000.0 eng);
  Engine.check_crashed eng

(* {2 Controller log collection} *)

let test_log_collection () =
  let records = ref None and records_quiet = ref None in
  with_ctl_platform (fun ctl ->
      let main env =
        Log.info env.Env.log "up at position %d" env.Env.position;
        Log.debug env.Env.log "below the default threshold"
      in
      let dep =
        Controller.deploy ctl ~name:"logger" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 4)
      in
      Env.sleep 5.0;
      records :=
        Some (Controller.job_log dep, Controller.logs_jsonl dep, Controller.job_log_dropped dep);
      (* a second job deployed at Warn collects nothing: Info records are
         filtered at the emitting node, not at the collector *)
      let dep2 =
        Controller.deploy ctl ~name:"quiet" ~log_level:Log.Warn ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 4)
      in
      Env.sleep 5.0;
      records_quiet := Some (Controller.job_log dep2);
      Controller.undeploy dep;
      Controller.undeploy dep2);
  (match !records with
  | None -> Alcotest.fail "deployment did not run"
  | Some (recs, jsonl, dropped) ->
      Alcotest.(check int) "one Info record per instance" 4 (List.length recs);
      Alcotest.(check int) "nothing dropped" 0 dropped;
      let nodes = List.sort_uniq compare (List.map (fun r -> r.Controller.lr_node) recs) in
      Alcotest.(check int) "records tagged with distinct nodes" 4 (List.length nodes);
      List.iter
        (fun r ->
          (match r.Controller.lr_level with
          | Log.Info -> ()
          | l -> Alcotest.failf "unexpected level %s" (Log.level_to_string l));
          Alcotest.(check bool) "formatted message" true
            (contains r.Controller.lr_msg "up at position"))
        recs;
      Alcotest.(check bool) "jsonl carries L records" true (contains jsonl "\"ev\":\"L\"");
      Alcotest.(check bool) "jsonl carries the level" true (contains jsonl "\"level\":\"info\""));
  (match !records_quiet with
  | None -> Alcotest.fail "second deployment did not run"
  | Some recs -> Alcotest.(check int) "Warn threshold filters at the node" 0 (List.length recs))

let test_select_report () =
  with_ctl_platform (fun ctl ->
      (* no criteria: everything alive matches *)
      let chosen, rep = Controller.select_report ctl 4 in
      Alcotest.(check int) "four chosen" 4 (List.length chosen);
      Alcotest.(check int) "all alive" 6 rep.Controller.sel_alive;
      Alcotest.(check int) "all matched" 6 rep.Controller.sel_matched;
      Alcotest.(check int) "none dead" 0 rep.Controller.sel_dead;
      (* an unsatisfiable criterion: the report says which one rejected *)
      let chosen, rep =
        Controller.select_report ctl ~criteria:[ Controller.Min_bandwidth infinity ] 4
      in
      Alcotest.(check int) "nothing selectable" 0 (List.length chosen);
      Alcotest.(check int) "nothing matched" 0 rep.Controller.sel_matched;
      (match rep.Controller.sel_rejected with
      | [ ("min_bandwidth", n) ] -> Alcotest.(check int) "all charged to min_bandwidth" 6 n
      | other ->
          Alcotest.failf "unexpected rejection report (%d entries)" (List.length other));
      (* plain select agrees with the report variant *)
      Alcotest.(check int) "select returns none" 0
        (List.length (Controller.select ctl ~criteria:[ Controller.Min_bandwidth infinity ] 4)))

let () =
  Alcotest.run "splay_obs"
    [
      ( "obs",
        [
          Alcotest.test_case "deterministic trace" `Quick test_trace_deterministic;
          Alcotest.test_case "golden trace unchanged" `Quick test_golden_trace;
          Alcotest.test_case "golden after untraced run" `Quick test_golden_after_untraced_run;
          Alcotest.test_case "time format matches printf" `Quick test_time_format_matches_printf;
          Alcotest.test_case "cross-node linkage" `Quick test_cross_node_linkage;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
        ] );
      ( "rollup",
        [
          Alcotest.test_case "quantile accuracy" `Quick test_rollup_quantile_accuracy;
          Alcotest.test_case "same quantiles as Sink.sketch" `Quick test_rollup_matches_sink_sketch;
          Alcotest.test_case "zero bucket" `Quick test_rollup_zero_bucket;
          Alcotest.test_case "capture merge" `Quick test_rollup_capture_merge;
          Alcotest.test_case "window rotation" `Quick test_rollup_window_rotation;
          Alcotest.test_case "golden metrics plane" `Quick test_golden_metrics_plane;
          Alcotest.test_case "slo violation rate" `Quick test_slo_violation_rate;
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
