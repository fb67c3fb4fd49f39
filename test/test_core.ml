(* Tests for the Splay facade (Platform) and the comparator baselines. *)

open Splay
module Apps = Splay_apps
module Baselines = Splay_baselines

let teardown p =
  List.iter Daemon.shutdown (Platform.daemons p);
  ignore
    (Engine.schedule (Platform.engine p) ~delay:0.0 (fun () ->
         Env.stop (Controller.env (Platform.controller p))))

(* {2 Platform} *)

let test_platform_specs () =
  List.iter
    (fun (spec, expected_hosts) ->
      let p = Platform.create ~seed:1 spec in
      (* testbed = requested hosts + the controller host *)
      Alcotest.(check int) "testbed size" (expected_hosts + 1) (Testbed.size (Platform.testbed p));
      Alcotest.(check int) "one daemon per host" expected_hosts
        (List.length (Platform.daemons p)))
    [
      (Platform.Planetlab 12, 12);
      (Platform.Modelnet { hosts = 15; bandwidth = None }, 15);
      (Platform.Cluster 7, 7);
      (Platform.Mixed { planetlab = 4; modelnet = 6 }, 10);
    ]

let test_platform_run_deploys () =
  let p = Platform.create ~seed:2 (Platform.Cluster 5) in
  let count = ref 0 in
  Platform.run p (fun p ->
      let dep =
        Controller.deploy (Platform.controller p) ~name:"probe"
          ~main:(fun _ -> incr count)
          (Descriptor.make 10)
      in
      Env.sleep 5.0;
      Alcotest.(check int) "instances ran" 10 !count;
      Alcotest.(check int) "all live" 10 (Controller.live_count dep);
      teardown p)

let test_platform_run_propagates_crash () =
  let p = Platform.create ~seed:3 (Platform.Cluster 2) in
  match
    Platform.run p (fun p ->
        ignore
          (Env.thread (Controller.env (Platform.controller p)) (fun () -> failwith "boom"));
        Env.sleep 1.0;
        teardown p)
  with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions the crash" true
        (String.length msg > 0 && String.sub msg 0 7 = "process")
  | () -> Alcotest.fail "crash not surfaced"

let test_platform_determinism () =
  let run () =
    let p = Platform.create ~seed:99 (Platform.Planetlab 8) in
    let out = ref 0.0 in
    Platform.run p (fun p ->
        let dep =
          Controller.deploy (Platform.controller p) ~name:"noop"
            ~main:(fun _ -> ())
            (Descriptor.make 5)
        in
        out := Platform.now p;
        Controller.undeploy dep;
        teardown p);
    !out
  in
  Alcotest.(check (float 1e-12)) "same seed, same timeline" (run ()) (run ())

(* {2 Baselines} *)

let test_freepastry_contention_model () =
  let light = Baselines.Freepastry.daemon_config.Daemon.contention_extra 50 in
  let heavy = Baselines.Freepastry.daemon_config.Daemon.contention_extra 180 in
  Alcotest.(check (float 1e-9)) "no extra below the knee" 0.0 light;
  Alcotest.(check bool) "superlinear past the knee" true (heavy > 10.0);
  Alcotest.(check bool) "JVM-scale footprint" true
    (Baselines.Freepastry.daemon_config.Daemon.base_footprint > 8 * 1024 * 1024);
  Alcotest.(check bool) "per-hop overhead set" true
    (Baselines.Freepastry.app_config.Apps.Pastry.per_hop_overhead > 0.0)

let test_mit_chord_config () =
  Alcotest.(check bool) "proximity fingers on" true
    Baselines.Mit_chord.app_config.Apps.Chord_ft.proximity_fingers;
  Alcotest.(check bool) "splay chord has them off" false
    Apps.Chord_ft.default_config.Apps.Chord_ft.proximity_fingers

let test_crcp_matches_trees_topology () =
  (* the two implementations must build the same trees, or Fig. 13 would
     compare different protocols *)
  let p = Platform.create ~seed:4 (Platform.Cluster 8) in
  Platform.run p (fun p ->
      let ctl = Platform.controller p in
      let splay_handles = ref [] and crcp_handles = ref [] in
      let n = 14 in
      ignore
        (Controller.deploy ctl ~name:"trees"
           ~main:
             (Apps.Trees.app ~file_size:(256 * 1024)
                ~register:(fun x -> splay_handles := x :: !splay_handles))
           (Descriptor.make ~bootstrap:Descriptor.All n));
      ignore
        (Controller.deploy ctl ~name:"crcp"
           ~main:
             (Baselines.Crcp.app ~file_size:(256 * 1024)
                ~register:(fun x -> crcp_handles := x :: !crcp_handles))
           (Descriptor.make ~bootstrap:Descriptor.All n));
      Env.sleep 60.0;
      let sort_by_pos get_pos l = List.sort (fun a b -> Int.compare (get_pos a) (get_pos b)) l in
      let s = sort_by_pos Apps.Trees.position !splay_handles in
      let c = sort_by_pos Baselines.Crcp.position !crcp_handles in
      List.iter2
        (fun sh ch ->
          for tree = 0 to 1 do
            let ports l = List.sort Int.compare (List.map (fun a -> a.Addr.port) l) in
            (* same fan-out structure: equal child counts per tree level *)
            Alcotest.(check int)
              (Printf.sprintf "same child count (pos %d tree %d)" (Apps.Trees.position sh) tree)
              (List.length (ports (Apps.Trees.children sh ~tree)))
              (List.length (ports (Baselines.Crcp.children ch ~tree)))
          done)
        s c;
      (* both deliveries complete *)
      List.iter
        (fun x -> Alcotest.(check bool) "splay complete" true (Apps.Trees.completion_time x <> None))
        s;
      List.iter
        (fun x -> Alcotest.(check bool) "crcp complete" true (Baselines.Crcp.completion_time x <> None))
        c;
      teardown p)

let test_crcp_slower_on_thin_links () =
  (* sequential acknowledged sends vs pipelined fire-and-forget: on slow
     links CRCP must finish later (Fig. 13's shape) *)
  let run_one which =
    let p =
      Platform.create ~seed:5
        (Platform.Modelnet { hosts = 18; bandwidth = Some (2_000_000.0 /. 8.0) })
    in
    let finish = ref 0.0 in
    Platform.run p (fun p ->
        let ctl = Platform.controller p in
        let file_size = 1024 * 1024 in
        let done_splay = ref [] and done_crcp = ref [] in
        (match which with
        | `Splay ->
            ignore
              (Controller.deploy ctl ~name:"trees"
                 ~main:(Apps.Trees.app ~file_size ~register:(fun x -> done_splay := x :: !done_splay))
                 (Descriptor.make ~bootstrap:Descriptor.All 16))
        | `Crcp ->
            ignore
              (Controller.deploy ctl ~name:"crcp"
                 ~main:
                   (Baselines.Crcp.app ~file_size ~register:(fun x -> done_crcp := x :: !done_crcp))
                 (Descriptor.make ~bootstrap:Descriptor.All 16)));
        let all_done () =
          match which with
          | `Splay ->
              List.length !done_splay = 16
              && List.for_all (fun x -> Apps.Trees.completion_time x <> None) !done_splay
          | `Crcp ->
              List.length !done_crcp = 16
              && List.for_all (fun x -> Baselines.Crcp.completion_time x <> None) !done_crcp
        in
        let rec wait () =
          Env.sleep 10.0;
          if not (all_done ()) then wait ()
        in
        wait ();
        let times =
          match which with
          | `Splay -> List.filter_map Apps.Trees.completion_time !done_splay
          | `Crcp -> List.filter_map Baselines.Crcp.completion_time !done_crcp
        in
        finish := List.fold_left Float.max 0.0 times;
        teardown p);
    !finish
  in
  let splay_t = run_one `Splay and crcp_t = run_one `Crcp in
  Alcotest.(check bool)
    (Printf.sprintf "crcp finishes later (%.1f s vs %.1f s)" crcp_t splay_t)
    true (crcp_t > splay_t)

(* {2 Bench harness CLI} *)

(* --out-dir must fail loudly on a bare or empty value — silently
   keeping the default would overwrite the committed baselines the caller
   meant to redirect. The exe is a declared test dep; flag errors exit
   before any experiment runs, so these are fast. *)
let bench_exe () =
  let local = "../bench/main.exe" in
  if Sys.file_exists local then Some local else None

let test_out_dir_flag_errors () =
  match bench_exe () with
  | None -> () (* run outside the dune sandbox; nothing to exercise *)
  | Some exe ->
      let run args = Sys.command (Filename.quote_command exe args ~stdout:Filename.null ~stderr:Filename.null) in
      List.iter
        (fun args ->
          Alcotest.(check int)
            (String.concat " " ("exit 2 for" :: args))
            2 (run args))
        [
          [ "--out-dir=" ];
          [ "--out-dir" ];
          [ "--out-dir"; "" ];
          [ "--out-dir"; "--list" ];
          [ "--bench-out=somewhere.json"; "--list" ];
        ];
      (* a well-formed output flag still reaches normal argument handling *)
      Alcotest.(check int) "exit 0 for --out-dir=DIR + --list" 0
        (run [ "--out-dir=_bench_flag_test"; "--list" ]);
      Alcotest.(check int) "exit 0 for --out-dir DIR + --list" 0
        (run [ "--out-dir"; "_bench_flag_test"; "--list" ])

(* The floors checker on inline texts: each bound kind passing and
   failing, a missing row and a missing field (both fail), and a speedup
   row on one worker (annotated, not gated). *)
let test_floors_checker () =
  let bench =
    {|{
  "schema": "splay-bench/2",
  "rows": [
    {"name": "a", "ops": 10, "ops_per_sec": 100, "p99_s": 0.5},
    {"name": "b", "ops": 10, "ops_per_sec": 200, "p99_s": 1.0},
    {"name": "par", "ops": 10, "speedup_x": 1.5, "workers": 2, "cores": 2},
    {"name": "par1", "ops": 10, "speedup_x": 0.8, "workers": 1, "cores": 1}
  ]
}|}
  in
  let check name floors expected =
    Alcotest.(check (list bool)) name expected (List.map fst (Row.check ~bench ~floors))
  in
  check "floor" {|{"name": "a", "floor_ops_per_sec": 100}|} [ true ];
  check "floor violated" {|{"name": "a", "floor_ops_per_sec": 101}|} [ false ];
  check "ceiling" {|{"name": "a", "ceiling_p99_s": 0.5}|} [ true ];
  check "ceiling violated" {|{"name": "a", "ceiling_p99_s": 0.4}|} [ false ];
  check "floor ratio" {|{"name": "a", "floor_ratio_ops_per_sec": 0.5, "baseline": "b"}|} [ true ];
  check "floor ratio violated" {|{"name": "a", "floor_ratio_ops_per_sec": 0.6, "baseline": "b"}|}
    [ false ];
  check "ceiling ratio" {|{"name": "a", "ceiling_ratio_p99_s": 0.5, "baseline": "b"}|} [ true ];
  check "ceiling ratio violated" {|{"name": "a", "ceiling_ratio_p99_s": 0.4, "baseline": "b"}|}
    [ false ];
  check "speedup" {|{"name": "par", "floor_speedup_x_per_worker": 0.75}|} [ true ];
  check "speedup violated" {|{"name": "par", "floor_speedup_x_per_worker": 0.8}|} [ false ];
  check "missing row" {|{"name": "c", "floor_ops_per_sec": 1}|} [ false ];
  check "missing field" {|{"name": "a", "floor_windows": 1}|} [ false ];
  check "missing baseline row" {|{"name": "a", "floor_ratio_ops_per_sec": 0.5, "baseline": "c"}|}
    [ false ];
  check "ratio without baseline" {|{"name": "a", "floor_ratio_ops_per_sec": 0.5}|} [ false ];
  check "bounds of several rows, in order"
    {|{"name": "a", "floor_ops_per_sec": 100, "ceiling_p99_s": 0.4},
    {"name": "b", "floor_ops_per_sec": 100}|}
    [ true; false; true ];
  match Row.check ~bench ~floors:{|{"name": "par1", "floor_speedup_x_per_worker": 0.5}|} with
  | [ (true, msg) ] ->
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("one worker is annotated: " ^ msg) true (has "not gated")
  | _ -> Alcotest.fail "a one-worker speedup row must pass with one annotation"

let () =
  Alcotest.run "splay_core"
    [
      ( "bench-cli",
        [
          Alcotest.test_case "out-dir flag errors" `Quick test_out_dir_flag_errors;
          Alcotest.test_case "floors checker" `Quick test_floors_checker;
        ] );
      ( "platform",
        [
          Alcotest.test_case "specs" `Quick test_platform_specs;
          Alcotest.test_case "run deploys" `Quick test_platform_run_deploys;
          Alcotest.test_case "crash propagates" `Quick test_platform_run_propagates_crash;
          Alcotest.test_case "determinism" `Quick test_platform_determinism;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "freepastry contention" `Quick test_freepastry_contention_model;
          Alcotest.test_case "mit chord config" `Quick test_mit_chord_config;
          Alcotest.test_case "crcp topology matches" `Quick test_crcp_matches_trees_topology;
          Alcotest.test_case "crcp slower on thin links" `Quick test_crcp_slower_on_thin_links;
        ] );
    ]
