(* Tests for the churn manager: script language, traces, transforms,
   replayer driving a live deployment. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl
open Splay_churn

let fig4_script =
  {|at 30s join 10
from 5m to 10m inc 10
from 10m to 15m const churn 50%
at 15m leave 50%
from 15m to 20m inc 10 churn 150%
at 20m stop|}

(* {2 Script language} *)

let test_script_parse_fig4 () =
  let s = Script.parse fig4_script in
  Alcotest.(check int) "six phases" 6 (List.length s);
  Alcotest.(check (float 1e-9)) "duration 20m" 1200.0 (Script.duration s);
  match s with
  | Script.At (30.0, Script.Join 10)
    :: Script.Interval { start = 300.0; finish = 600.0; inc_per_min = 10; churn_pct = 0.0 }
    :: Script.Interval { start = 600.0; finish = 900.0; inc_per_min = 0; churn_pct = 50.0 }
    :: Script.At (900.0, Script.Leave_pct 50.0)
    :: Script.Interval { start = 900.0; finish = 1200.0; inc_per_min = 10; churn_pct = 150.0 }
    :: [ Script.At (1200.0, Script.Stop) ] ->
      ()
  | _ -> Alcotest.fail "unexpected parse"

let test_script_time_units () =
  match Script.parse "at 90 join 1\nat 2m join 2\nat 1h join 3" with
  | [ Script.At (90.0, _); Script.At (120.0, _); Script.At (3600.0, _) ] -> ()
  | _ -> Alcotest.fail "time units"

let test_script_sorts_phases () =
  match Script.parse "at 2m join 1\nat 1m join 2" with
  | [ Script.At (60.0, Script.Join 2); Script.At (120.0, Script.Join 1) ] -> ()
  | _ -> Alcotest.fail "not sorted"

let test_script_errors () =
  let bad src =
    match Script.parse src with
    | exception Script.Syntax_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" src
  in
  bad "at 10s dance 3";
  bad "at join 3";
  bad "from 5m to 3m inc 10";
  bad "at 10s join 50%";
  bad "from 1m to 2m inc 10 churn fast";
  bad "at -5s join 1"

let test_script_profile () =
  let s = Script.parse fig4_script in
  let prof = Script.profile s ~bin:60.0 ~initial:0 in
  let pop_at minute =
    let _, p, _, _ = List.nth prof minute in
    p
  in
  Alcotest.(check int) "initial joins" 10 (pop_at 0);
  Alcotest.(check int) "stable until 5m" 10 (pop_at 4);
  Alcotest.(check int) "linear growth to 60" 60 (pop_at 10);
  Alcotest.(check int) "constant during churn" 60 (pop_at 14);
  (* minute 15: the massive leave (60 -> 30) and one minute of the resumed
     +10/min growth both land in this bin *)
  Alcotest.(check int) "half left at 15m, growth resumed" 40 (pop_at 15);
  Alcotest.(check int) "regrown to 80 before stop" 80 (pop_at 19);
  Alcotest.(check int) "zero after stop" 0 (pop_at 20);
  (* churn phase has both joins and leaves every minute *)
  let _, _, j, l = List.nth prof 12 in
  Alcotest.(check bool) "churn joins" true (j > 0);
  Alcotest.(check bool) "churn leaves" true (l > 0)

(* {2 Traces} *)

let test_trace_parse_roundtrip () =
  let src = "0.0 join 1\n5.0 join 2\n9.5 leave 1\n# comment\n\n12.0 join 1" in
  let t = Trace.of_string src in
  Alcotest.(check int) "events" 4 (List.length t);
  let t2 = Trace.of_string (Trace.to_string t) in
  Alcotest.(check int) "roundtrip" 4 (List.length t2);
  Alcotest.(check int) "population mid" 2 (Trace.population t ~at:6.0);
  Alcotest.(check int) "population after leave" 1 (Trace.population t ~at:10.0)

let test_trace_validation () =
  let bad src =
    match Trace.of_string src with
    | exception Trace.Format_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" src
  in
  bad "0.0 join 1\n1.0 join 1";
  bad "0.0 leave 1";
  bad "0.0 frobnicate 1";
  bad "zero join 1"

let test_trace_synthetic_overnet () =
  let rng = Rng.create 5 in
  let t = Trace.synthetic_overnet ~concurrent:200 ~duration:3000.0 rng in
  Alcotest.(check bool) "has events" true (List.length t > 100);
  (* average population near the target *)
  let series = Trace.population_series t ~bin:60.0 in
  let later = List.filteri (fun i _ -> i > 5) series in
  let avg =
    List.fold_left (fun acc (_, p) -> acc +. Float.of_int p) 0.0 later
    /. Float.of_int (List.length later)
  in
  Alcotest.(check bool)
    (Printf.sprintf "population near 200 (got %.0f)" avg)
    true
    (avg > 120.0 && avg < 280.0);
  Alcotest.(check bool) "continuous churn" true (Trace.churn_rate t ~bin:300.0 > 0.002)

let test_transform_speedup () =
  let rng = Rng.create 6 in
  (* long enough that the (long-session) trace has real churn *)
  let t = Trace.synthetic_overnet ~concurrent:80 ~duration:8000.0 rng in
  let fast = Transform.speedup 2.0 t in
  Alcotest.(check int) "same events" (List.length t) (List.length fast);
  Alcotest.(check bool) "half duration" true
    (Float.abs ((Trace.duration t /. 2.0) -. Trace.duration fast) < 1e-6);
  (* churn rate roughly doubles per wall-clock bin *)
  let r1 = Trace.churn_rate t ~bin:60.0 and r2 = Trace.churn_rate fast ~bin:60.0 in
  Alcotest.(check bool) "volatility increased" true (r2 > r1)

let test_transform_amplify () =
  let rng = Rng.create 7 in
  let t = Trace.synthetic_overnet ~concurrent:50 ~duration:1000.0 rng in
  let big = Transform.amplify rng 2.0 t in
  Alcotest.(check int) "double events" (2 * List.length t) (List.length big);
  (* still a valid trace (validation runs in of_string) *)
  ignore (Trace.of_string (Trace.to_string big));
  let p1 = Trace.population t ~at:500.0 and p2 = Trace.population big ~at:500.0 in
  Alcotest.(check bool) "double population" true (abs (p2 - (2 * p1)) <= p1)

let test_transform_crop () =
  let t =
    Trace.of_string "0.0 join 1\n10.0 join 2\n20.0 leave 1\n30.0 join 3\n40.0 leave 2"
  in
  let c = Transform.crop ~from:15.0 ~until:35.0 t in
  (* nodes 1 and 2 were up at t=15 -> reopened at 0; then leave 1 at 5,
     join 3 at 15 *)
  Alcotest.(check int) "events" 4 (List.length c);
  ignore (Trace.of_string (Trace.to_string c));
  Alcotest.(check int) "population at crop end" 2 (Trace.population c ~at:16.0)

let test_transform_renumber () =
  let t = Trace.of_string "0.0 join 42\n1.0 join 7\n2.0 leave 42" in
  let r = Transform.renumber t in
  Alcotest.(check (list int)) "compact ids" [ 0; 0; 1 ]
    (List.map (fun e -> e.Trace.node) (List.sort (fun a b -> Float.compare a.Trace.time b.Trace.time) r)
    |> fun l -> [ List.nth l 0; List.nth l 2; List.nth l 1 ])

(* {2 Replayer against a live deployment} *)

let with_platform ?(hosts = 10) f =
  let eng = Engine.create ~seed:21 () in
  let tb0 = Testbed.cluster ~n:hosts (Engine.rng eng) in
  let tb, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create eng tb in
  let ctl = Controller.create net ~host:ctl_host in
  let daemons = Controller.boot_daemons ctl (List.init hosts Fun.id) in
  ignore
    (Env.thread (Controller.env ctl) (fun () ->
         Fun.protect
           ~finally:(fun () ->
             (* tear the platform down so the event queue drains *)
             List.iter Daemon.shutdown daemons;
             (* defer: stopping the controller env from inside this very
                process would self-kill through the finally *)
             ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
           (fun () -> f eng net ctl)));
  ignore (Engine.run ~until:36000.0 eng);
  Engine.check_crashed eng

let noop_app (_ : Env.t) = ()

let deploy_noop ctl n =
  Controller.deploy ctl ~name:"noop" ~main:noop_app (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)

let test_replayer_script_grows_and_shrinks () =
  with_platform (fun _ _ ctl ->
      let dep = deploy_noop ctl 10 in
      let script = Script.parse "from 0s to 2m inc 10\nat 3m leave 50%\nat 4m stop" in
      let _proc, stats = Replayer.run_script dep script in
      Env.sleep 125.0;
      Alcotest.(check bool)
        (Printf.sprintf "grew to ~30 (got %d)" (Controller.live_count dep))
        true
        (abs (Controller.live_count dep - 30) <= 3);
      Env.sleep 60.0;
      let after_half = Controller.live_count dep in
      Alcotest.(check bool)
        (Printf.sprintf "halved (got %d)" after_half)
        true
        (abs (after_half - 15) <= 3);
      Env.sleep 60.0;
      Alcotest.(check int) "stop clears everyone" 0 (Controller.live_count dep);
      Alcotest.(check bool) "stats track events" true (stats.Replayer.joins >= 18 && stats.Replayer.leaves >= 25))

let test_replayer_const_churn_keeps_population () =
  with_platform (fun _ _ ctl ->
      let dep = deploy_noop ctl 20 in
      let observed = ref 0 in
      let script = Script.parse "from 0s to 3m const churn 50%" in
      let _proc, stats =
        Replayer.run_script ~observer:(fun _ _ -> incr observed) dep script
      in
      Env.sleep 185.0;
      Alcotest.(check bool)
        (Printf.sprintf "population stable (got %d)" (Controller.live_count dep))
        true
        (abs (Controller.live_count dep - 20) <= 4);
      (* 50% churn of 20 nodes over 3 minutes: ~30 joins + ~30 leaves *)
      Alcotest.(check bool)
        (Printf.sprintf "real turnover (joins=%d leaves=%d)" stats.Replayer.joins stats.Replayer.leaves)
        true
        (stats.Replayer.joins >= 20 && stats.Replayer.leaves >= 20);
      Alcotest.(check int) "observer saw everything" (stats.Replayer.joins + stats.Replayer.leaves) !observed)

let test_replayer_trace () =
  with_platform (fun _ _ ctl ->
      let dep = deploy_noop ctl 3 in
      let trace =
        Trace.of_string
          "0.0 join 100\n0.0 join 101\n0.0 join 102\n30.0 leave 100\n60.0 join 103\n90.0 leave 101"
      in
      let _proc, stats = Replayer.run_trace dep trace in
      Env.sleep 45.0;
      Alcotest.(check int) "one down at 45s" 2 (Controller.live_count dep);
      Env.sleep 30.0;
      Alcotest.(check int) "join 103 added a node" 3 (Controller.live_count dep);
      Env.sleep 30.0;
      Alcotest.(check int) "final population" 2 (Controller.live_count dep);
      Alcotest.(check int) "no failed joins" 0 stats.Replayer.failed_joins)

let test_replayer_maintain () =
  with_platform (fun eng _ ctl ->
      let dep = deploy_noop ctl 10 in
      let proc = Replayer.maintain ~target:10 ~interval:30.0 dep in
      (* kill 4 nodes; the maintainer must restore the population *)
      List.iteri
        (fun i (_, a, _) -> if i < 4 then Controller.crash_node dep a)
        (Controller.live_members dep);
      Alcotest.(check int) "dropped" 6 (Controller.live_count dep);
      Env.sleep 100.0;
      Alcotest.(check int) "restored" 10 (Controller.live_count dep);
      Engine.kill eng proc)


(* {2 Property-based tests} *)

let gen_action =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Script.Join k) (int_range 1 50));
        (2, map (fun k -> Script.Leave_count k) (int_range 1 50));
        (2, map (fun p -> Script.Leave_pct (Float.of_int p)) (int_range 1 100));
        (1, return Script.Stop);
      ])

let gen_phase =
  QCheck.Gen.(
    let time = map (fun m -> Float.of_int m) (int_range 0 3600) in
    frequency
      [
        (3, map2 (fun t a -> Script.At (t, a)) time gen_action);
        ( 2,
          map3
            (fun start len (inc, churn) ->
              Script.Interval
                {
                  start;
                  finish = start +. Float.of_int len;
                  inc_per_min = inc;
                  churn_pct = Float.of_int churn;
                })
            time (int_range 60 1200)
            (pair (int_range (-20) 20) (int_range 0 200)) );
      ])

let gen_script = QCheck.Gen.(list_size (int_range 1 8) gen_phase)

let prop_script_roundtrip =
  QCheck.Test.make ~name:"script to_string/parse roundtrip" ~count:300
    (QCheck.make ~print:(fun s -> Script.to_string s) gen_script)
    (fun phases ->
      (* normalize through one parse (sorting), then round-trip *)
      let s1 = Script.parse (Script.to_string phases) in
      let s2 = Script.parse (Script.to_string s1) in
      s1 = s2 && List.length s1 = List.length phases)

let gen_trace =
  QCheck.Gen.(
    let* nodes = int_range 1 10 in
    let* events_per_node = int_range 0 6 in
    let* start_ms = array_size (return nodes) (int_range 0 5_000) in
    return
      (List.concat
         (List.init nodes (fun node ->
              List.init events_per_node (fun i ->
                  {
                    Trace.time = Float.of_int (start_ms.(node) + (i * 1000)) /. 1000.0;
                    node;
                    action = (if i mod 2 = 0 then `Join else `Leave);
                  })))))

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace to_string/of_string roundtrip" ~count:300
    (QCheck.make ~print:Trace.to_string gen_trace)
    (fun t ->
      let t' = Trace.of_string (Trace.to_string t) in
      List.length t = List.length t'
      && List.for_all2
           (fun a b ->
             a.Trace.node = b.Trace.node
             && a.Trace.action = b.Trace.action
             && Float.abs (a.Trace.time -. b.Trace.time) < 0.001)
           (List.stable_sort (fun a b -> Float.compare a.Trace.time b.Trace.time) t)
           t')

let prop_crop_valid =
  QCheck.Test.make ~name:"crop yields valid traces" ~count:300
    (QCheck.make ~print:Trace.to_string gen_trace)
    (fun t ->
      QCheck.assume (t <> []);
      let d = Float.max 1.0 (Trace.duration t) in
      let c = Transform.crop ~from:(d /. 4.0) ~until:(3.0 *. d /. 4.0) t in
      (* validation happens inside of_string; it raises on bad traces *)
      match Trace.of_string (Trace.to_string c) with _ -> true)

let prop_speedup_preserves_event_count =
  QCheck.Test.make ~name:"speedup preserves events and order" ~count:300
    (QCheck.make ~print:Trace.to_string gen_trace)
    (fun t ->
      let f = Transform.speedup 3.0 t in
      List.length f = List.length t
      && List.for_all2 (fun a b -> a.Trace.node = b.Trace.node) t f)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_script_roundtrip; prop_trace_roundtrip; prop_crop_valid; prop_speedup_preserves_event_count ]

let test_replayer_deterministic () =
  (* the paper's point: the same churn scenario can be replayed exactly,
     making protocol comparisons fair; with a fixed seed the whole run —
     deployment, churn, failures — is bit-identical *)
  let run seed =
    let eng = Engine.create ~seed () in
    let tb0 = Testbed.cluster ~n:10 (Engine.rng eng) in
    let tb, ctl_host = Testbed.with_extra_host tb0 in
    let net = Net.create eng tb in
    let ctl = Controller.create net ~host:ctl_host in
    let daemons = Controller.boot_daemons ctl (List.init 10 Fun.id) in
    let out = ref (0, 0, 0.0) in
    ignore
      (Env.thread (Controller.env ctl) (fun () ->
           Fun.protect
             ~finally:(fun () ->
               List.iter Daemon.shutdown daemons;
               ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
             (fun () ->
               let dep =
                 Controller.deploy ctl ~name:"noop" ~main:(fun _ -> ())
                   (Descriptor.make ~bootstrap:(Descriptor.Head 1) 10)
               in
               let script = Script.parse "from 0s to 2m const churn 40%\nat 3m leave 30%" in
               let _proc, stats = Replayer.run_script dep script in
               Env.sleep 200.0;
               out := (stats.Replayer.joins, stats.Replayer.leaves, Engine.now eng))));
    ignore (Engine.run ~until:36000.0 eng);
    !out
  in
  let a = run 77 and b = run 77 in
  Alcotest.(check bool) "same seed, identical churn" true (a = b)

let () =
  Alcotest.run "splay_churn"
    [
      ( "script",
        [
          Alcotest.test_case "parse fig4" `Quick test_script_parse_fig4;
          Alcotest.test_case "time units" `Quick test_script_time_units;
          Alcotest.test_case "sorted" `Quick test_script_sorts_phases;
          Alcotest.test_case "errors" `Quick test_script_errors;
          Alcotest.test_case "profile" `Quick test_script_profile;
        ] );
      ( "trace",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_trace_parse_roundtrip;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "synthetic overnet" `Quick test_trace_synthetic_overnet;
        ] );
      ( "transform",
        [
          Alcotest.test_case "speedup" `Quick test_transform_speedup;
          Alcotest.test_case "amplify" `Quick test_transform_amplify;
          Alcotest.test_case "crop" `Quick test_transform_crop;
          Alcotest.test_case "renumber" `Quick test_transform_renumber;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "script grows and shrinks" `Quick test_replayer_script_grows_and_shrinks;
          Alcotest.test_case "const churn" `Quick test_replayer_const_churn_keeps_population;
          Alcotest.test_case "trace" `Quick test_replayer_trace;
          Alcotest.test_case "maintain" `Quick test_replayer_maintain;
          Alcotest.test_case "deterministic replay" `Quick test_replayer_deterministic;
        ] );
      ("properties", qsuite);
    ]
