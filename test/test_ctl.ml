(* Tests for the controller side: descriptors, daemons, deployment
   protocol, sessions, blacklist. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl

(* {2 Descriptor} *)

let test_descriptor_parse () =
  let src =
    {|
-- my app
--[[ BEGIN SPLAY RESOURCES RESERVATION
nb_splayd 1000
nodes head 1
max_mem 2097152
END SPLAY RESOURCES RESERVATION ]]
print("hello")
|}
  in
  let d = Descriptor.parse src in
  Alcotest.(check int) "nb_splayd" 1000 d.Descriptor.nb_splayd;
  (match d.Descriptor.bootstrap with
  | Descriptor.Head 1 -> ()
  | _ -> Alcotest.fail "bootstrap");
  Alcotest.(check int) "max_mem" 2_097_152 d.Descriptor.limits.Sandbox.max_memory

let test_descriptor_defaults () =
  let d = Descriptor.parse "no header here" in
  Alcotest.(check int) "one instance" 1 d.Descriptor.nb_splayd

let test_descriptor_errors () =
  let bad src msg =
    match Descriptor.parse src with
    | exception Descriptor.Syntax_error _ -> ()
    | _ -> Alcotest.fail msg
  in
  bad "--[[ BEGIN SPLAY RESOURCES RESERVATION\nnb_splayd 10" "missing end";
  bad
    "--[[ BEGIN SPLAY RESOURCES RESERVATION\nfrobnicate 3\nEND SPLAY RESOURCES RESERVATION ]]"
    "unknown key";
  bad
    "--[[ BEGIN SPLAY RESOURCES RESERVATION\nnb_splayd many\nEND SPLAY RESOURCES RESERVATION ]]"
    "bad int"

let test_descriptor_roundtrip () =
  let d =
    Descriptor.make ~bootstrap:(Descriptor.Random_subset 5)
      ~limits:{ Sandbox.unlimited with Sandbox.max_memory = 1 lsl 20 }
      64
  in
  let d' = Descriptor.parse (Descriptor.to_string d) in
  Alcotest.(check int) "nb" 64 d'.Descriptor.nb_splayd;
  (match d'.Descriptor.bootstrap with
  | Descriptor.Random_subset 5 -> ()
  | _ -> Alcotest.fail "bootstrap");
  Alcotest.(check int) "mem" (1 lsl 20) d'.Descriptor.limits.Sandbox.max_memory

(* {2 Deployment fixtures} *)

let with_platform ?(hosts = 10) ?daemon_config f =
  let eng = Engine.create ~seed:11 () in
  let tb0 = Testbed.cluster ~n:hosts (Engine.rng eng) in
  let tb, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create eng tb in
  let ctl = Controller.create net ~host:ctl_host in
  let daemons = Controller.boot_daemons ?config:daemon_config ctl (List.init hosts Fun.id) in
  ignore
    (Env.thread (Controller.env ctl) (fun () ->
         Fun.protect
           ~finally:(fun () ->
             List.iter Daemon.shutdown daemons;
             (* defer: stopping the controller env from inside this very
                process would self-kill through the finally *)
             ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
           (fun () -> f eng net ctl daemons)));
  ignore (Engine.run ~until:36000.0 eng);
  Engine.check_crashed eng

let noop_app (_ : Env.t) = ()

let test_deploy_counts_and_positions () =
  with_platform (fun _ _ ctl _ ->
      let dep =
        Controller.deploy ctl ~name:"noop" ~main:noop_app (Descriptor.make ~bootstrap:(Descriptor.Head 1) 30)
      in
      let ms = Controller.members dep in
      Alcotest.(check int) "30 instances" 30 (List.length ms);
      let positions = List.map (fun (_, _, p) -> p) ms in
      Alcotest.(check (list int)) "positions 1..30" (List.init 30 (fun i -> i + 1))
        (List.sort Int.compare positions);
      let addrs = List.map (fun (_, a, _) -> Addr.to_string a) ms in
      Alcotest.(check int) "addresses unique" 30 (List.length (List.sort_uniq String.compare addrs));
      Alcotest.(check int) "all live" 30 (Controller.live_count dep))

let test_deploy_app_really_runs () =
  with_platform (fun _ _ ctl _ ->
      let ran = ref 0 in
      let main env =
        incr ran;
        Log.info env.Env.log "instance %d up" env.Env.position
      in
      let dep = Controller.deploy ctl ~name:"counter" ~main (Descriptor.make 8) in
      Env.sleep 1.0;
      Alcotest.(check int) "all instances executed" 8 !ran;
      Alcotest.(check int) "log collector got the lines" 8 (Controller.log_lines dep);
      Alcotest.(check bool) "log bytes counted" true (Controller.log_bytes dep > 0))

let test_deploy_bootstrap_head () =
  with_platform (fun _ _ ctl _ ->
      let seen = ref [] in
      let main env = seen := (env.Env.position, env.Env.nodes) :: !seen in
      let dep =
        Controller.deploy ctl ~name:"boot" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 12)
      in
      Env.sleep 1.0;
      let rendezvous =
        match List.assoc 1 !seen with
        | [ a ] -> a
        | _ -> Alcotest.fail "head 1 must give exactly one node"
      in
      List.iter
        (fun (_, nodes) ->
          match nodes with
          | [ a ] -> Alcotest.(check string) "same rendezvous" (Addr.to_string rendezvous) (Addr.to_string a)
          | _ -> Alcotest.fail "expected singleton")
        !seen;
      (* the rendezvous node is position 1's own address *)
      let _, a1, _ = List.find (fun (_, _, p) -> p = 1) (Controller.members dep) in
      Alcotest.(check string) "rendezvous is first member" (Addr.to_string a1)
        (Addr.to_string rendezvous))

let test_deploy_superset_frees_extras () =
  with_platform (fun _ _ ctl daemons ->
      ignore (Controller.deploy ctl ~name:"noop" ~main:noop_app (Descriptor.make 10));
      (* give async FREEs time to land *)
      Env.sleep 120.0;
      let total = List.fold_left (fun acc d -> acc + Daemon.instance_count d) 0 daemons in
      Alcotest.(check int) "supernumerary instances freed" 10 total)

let test_multiple_instances_per_host () =
  with_platform ~hosts:3 (fun _ _ ctl daemons ->
      ignore (Controller.deploy ctl ~name:"noop" ~main:noop_app (Descriptor.make 12));
      Env.sleep 60.0;
      List.iter
        (fun d ->
          Alcotest.(check bool) "several instances per host" true (Daemon.instance_count d >= 2))
        daemons)

let test_controller_blacklisted_for_apps () =
  with_platform (fun _ _ ctl _ ->
      let result = ref None in
      let ctl_addr = Controller.addr ctl in
      let main env =
        Rpc.client env;
        result := Some (Rpc.a_call env ctl_addr ~timeout:5.0 "ctl.heartbeat" [ Codec.Int 0 ])
      in
      ignore (Controller.deploy ctl ~name:"sneaky" ~main (Descriptor.make 1));
      Env.sleep 10.0;
      match !result with
      | Some (Error (Rpc.Network _)) -> ()
      | Some _ -> Alcotest.fail "application reached the controller"
      | None -> Alcotest.fail "app did not run")

let test_probe () =
  with_platform (fun _ _ ctl daemons ->
      match Controller.probe ctl (List.hd daemons) with
      | Some rtt -> Alcotest.(check bool) "positive rtt" true (rtt > 0.0)
      | None -> Alcotest.fail "probe timed out on a healthy LAN host")

let test_probe_dead_host () =
  with_platform (fun _ net ctl daemons ->
      let d = List.hd daemons in
      Net.set_host_up net (Daemon.host d) false;
      Alcotest.(check bool) "no rtt from dead host" true (Controller.probe ctl d = None))

let test_add_and_crash_node () =
  with_platform (fun _ _ ctl _ ->
      let dep = Controller.deploy ctl ~name:"noop" ~main:noop_app (Descriptor.make 5) in
      Alcotest.(check int) "initial" 5 (Controller.live_count dep);
      (match Controller.add_node dep with
      | Some _ -> ()
      | None -> Alcotest.fail "join refused");
      Alcotest.(check int) "after join" 6 (Controller.live_count dep);
      let _, victim, _ = List.hd (Controller.live_members dep) in
      Controller.crash_node dep victim;
      Alcotest.(check int) "after crash" 5 (Controller.live_count dep);
      (* crash is not an error for the others *)
      Alcotest.(check int) "members history keeps all" 6 (List.length (Controller.members dep)))

let test_undeploy () =
  with_platform (fun _ _ ctl daemons ->
      let dep = Controller.deploy ctl ~name:"noop" ~main:noop_app (Descriptor.make 6) in
      Controller.undeploy dep;
      Env.sleep 10.0;
      Alcotest.(check int) "no live members" 0 (Controller.live_count dep);
      let total = List.fold_left (fun acc d -> acc + Daemon.instance_count d) 0 daemons in
      Alcotest.(check int) "daemons emptied" 0 total)

let test_sessions_mark_dead_daemons () =
  let eng = Engine.create ~seed:3 () in
  let tb0 = Testbed.cluster ~n:4 (Engine.rng eng) in
  let tb, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create eng tb in
  (* short unseen timeout so the test does not simulate an hour *)
  let ctl = Controller.create ~unseen_timeout:200.0 net ~host:ctl_host in
  let daemons = Controller.boot_daemons ctl (List.init 4 Fun.id) in
  ignore
    (Env.thread (Controller.env ctl) (fun () ->
         Env.sleep 100.0;
         Alcotest.(check int) "all alive while heartbeating" 4
           (List.length (Controller.alive_daemons ctl));
         Net.set_host_up net (Daemon.host (List.hd daemons)) false;
         Env.sleep 400.0;
         Alcotest.(check int) "silent daemon dropped" 3
           (List.length (Controller.alive_daemons ctl))));
  ignore (Engine.run ~until:1000.0 eng)

let test_deploy_survives_dead_candidates () =
  with_platform ~hosts:8 (fun _ net ctl daemons ->
      (* two hosts die before deployment: registration to them times out,
         refill rounds cover the shortfall *)
      Net.set_host_up net (Daemon.host (List.nth daemons 0)) false;
      Net.set_host_up net (Daemon.host (List.nth daemons 1)) false;
      let dep =
        Controller.deploy ctl ~register_timeout:5.0 ~name:"noop" ~main:noop_app
          (Descriptor.make 6)
      in
      Alcotest.(check int) "full deployment despite failures" 6 (Controller.live_count dep);
      List.iter
        (fun (d, _, _) ->
          Alcotest.(check bool) "no instance on a dead host" true
            (Net.host_up net (Daemon.host d)))
        (Controller.members dep))

let test_sandbox_restrictions_applied () =
  with_platform (fun _ _ ctl _ ->
      let observed = ref None in
      let main env = observed := Some (Sandbox.limits env.Env.sandbox) in
      let desc =
        Descriptor.make ~limits:{ Sandbox.unlimited with Sandbox.max_memory = 1234 } 1
      in
      ignore (Controller.deploy ctl ~name:"limits" ~main desc);
      Env.sleep 1.0;
      match !observed with
      | Some l -> Alcotest.(check int) "controller restriction applied" 1234 l.Sandbox.max_memory
      | None -> Alcotest.fail "app did not run")

let test_lossy_deployment () =
  with_platform (fun _ _ ctl _ ->
      (* two instances told to drop half their packets: RPCs between them
         fail noticeably more often than on a clean deployment *)
      let envs = ref [] in
      let main env =
        Rpc.server env [ ("noop", fun _ -> Codec.Null) ];
        envs := env :: !envs
      in
      let desc = Descriptor.make ~bootstrap:(Descriptor.Head 1) ~loss:0.5 2 in
      ignore (Controller.deploy ctl ~name:"lossy" ~main desc);
      Env.sleep 1.0;
      match !envs with
      | [ a; b ] ->
          List.iter
            (fun (e : Env.t) ->
              Alcotest.(check (float 1e-9)) "loss applied" 0.5 e.Env.loss_rate)
            [ a; b ];
          let failures = ref 0 in
          for _ = 1 to 40 do
            match Rpc.a_call a b.Env.me ~timeout:1.0 "noop" [] with
            | Ok _ -> ()
            | Error _ -> incr failures
          done;
          (* P(round trip survives) = 0.25, so ~30 of 40 should fail *)
          Alcotest.(check bool)
            (Printf.sprintf "lossy links break RPCs (%d/40 failed)" !failures)
            true
            (!failures > 15)
      | _ -> Alcotest.fail "expected two instances")

let test_descriptor_loss_roundtrip () =
  let d = Descriptor.make ~loss:0.25 3 in
  let d' = Descriptor.parse (Descriptor.to_string d) in
  Alcotest.(check (float 1e-9)) "loss survives roundtrip" 0.25 d'.Descriptor.loss;
  (match
    Descriptor.parse
      "--[[ BEGIN SPLAY RESOURCES RESERVATION\nloss 1.5\nEND SPLAY RESOURCES RESERVATION ]]"
  with
  | exception Descriptor.Syntax_error _ -> ()
  | _ -> Alcotest.fail "loss > 1 accepted")

let test_stop_and_restart_node () =
  with_platform (fun _ _ ctl _ ->
      let runs = ref 0 in
      let main _env = incr runs in
      let dep =
        Controller.deploy ctl ~name:"restartable" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 3)
      in
      Env.sleep 1.0;
      Alcotest.(check int) "three instances ran" 3 !runs;
      let _, victim, _ = List.hd (Controller.live_members dep) in
      Controller.stop_node dep victim;
      Env.sleep 1.0;
      (* back to "selected": registered but not running *)
      Alcotest.(check int) "two live after STOP" 2 (Controller.live_count dep);
      Alcotest.(check int) "history keeps all three" 3 (List.length (Controller.members dep));
      Controller.restart_node dep victim;
      Env.sleep 1.0;
      Alcotest.(check int) "three live after re-START" 3 (Controller.live_count dep);
      Alcotest.(check int) "the application main ran again" 4 !runs)

let test_two_jobs_coexist () =
  with_platform (fun _ _ ctl _ ->
      (* the multi-user scenario: two jobs share daemons without interfering *)
      let a_runs = ref 0 and b_runs = ref 0 in
      let dep_a =
        Controller.deploy ctl ~name:"job-a" ~main:(fun _ -> incr a_runs) (Descriptor.make 8)
      in
      let dep_b =
        Controller.deploy ctl ~name:"job-b" ~main:(fun _ -> incr b_runs) (Descriptor.make 8)
      in
      Env.sleep 1.0;
      Alcotest.(check int) "job a ran" 8 !a_runs;
      Alcotest.(check int) "job b ran" 8 !b_runs;
      Alcotest.(check int) "a live" 8 (Controller.live_count dep_a);
      Alcotest.(check int) "b live" 8 (Controller.live_count dep_b);
      (* undeploying one job leaves the other untouched *)
      Controller.undeploy dep_a;
      Env.sleep 10.0;
      Alcotest.(check int) "a gone" 0 (Controller.live_count dep_a);
      Alcotest.(check int) "b unaffected" 8 (Controller.live_count dep_b))

let test_push_blacklist () =
  with_platform (fun _ _ ctl _ ->
      let dep = Controller.deploy ctl ~name:"noop" ~main:noop_app (Descriptor.make 3) in
      Controller.push_blacklist ctl 99;
      Env.sleep 1.0;
      List.iter
        (fun env ->
          Alcotest.(check bool) "blacklist pushed to running instances" true
            (Sandbox.blacklisted env.Env.sandbox 99))
        (Controller.live_envs dep))

(* {2 Job status and monitoring} *)

module Obs = Splay_obs.Obs

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_job_status () =
  with_platform (fun _ net ctl _ ->
      let dep = Controller.deploy ctl ~name:"statusy" ~main:noop_app (Descriptor.make 6) in
      let st = Controller.job_status dep in
      Alcotest.(check string) "job name" "statusy" st.Controller.st_name;
      Alcotest.(check int) "members" 6 st.Controller.st_members;
      Alcotest.(check int) "all live" 6 st.Controller.st_live;
      Alcotest.(check int) "no hosts down" 0 st.Controller.st_hosts_down;
      Alcotest.(check bool) "hosts up counted" true (st.Controller.st_hosts_up >= 1);
      Alcotest.(check bool) "worst list bounded by top" true
        (List.length st.Controller.st_worst <= 3);
      let wide = Controller.job_status ~top:100 dep in
      Alcotest.(check int) "top widens to every live instance" 6
        (List.length wide.Controller.st_worst);
      (* a crashed instance leaves the live count, not the history *)
      let _, victim, _ = List.hd (Controller.live_members dep) in
      Controller.crash_node dep victim;
      let st = Controller.job_status dep in
      Alcotest.(check int) "live after crash" 5 st.Controller.st_live;
      Alcotest.(check int) "members history intact" 6 st.Controller.st_members;
      (* a downed member host moves to the hosts-down column and its
         instances out of the live count *)
      let _, a, _ = List.hd (Controller.live_members dep) in
      Net.set_host_up net a.Addr.host false;
      let st = Controller.job_status dep in
      Alcotest.(check bool) "host counted down" true (st.Controller.st_hosts_down >= 1);
      Alcotest.(check bool) "its instances not live" true (st.Controller.st_live < 5);
      Net.set_host_up net a.Addr.host true;
      Alcotest.(check int) "restart restores the view" 5
        (Controller.job_status dep).Controller.st_live)

let test_monitor_emits_status_notes () =
  Obs.metrics_enabled := true;
  Obs.reset ();
  Obs.Rollup.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Rollup.clear ();
      Obs.reset ();
      Obs.metrics_enabled := false)
    (fun () ->
      with_platform (fun _ _ ctl _ ->
          let dep = Controller.deploy ctl ~name:"watched" ~main:noop_app (Descriptor.make 4) in
          Controller.monitor dep;
          (* three rollup windows' worth of sampling *)
          Env.sleep 35.0;
          Controller.undeploy dep);
      let dump = Obs.metrics_plane_jsonl () in
      Alcotest.(check bool) "ctl.job_status notes in the dump" true
        (contains dump "\"m\":\"ctl.job_status\"");
      Alcotest.(check bool) "notes carry the job name" true
        (contains dump "\"job\":\"watched\"");
      Alcotest.(check bool) "notes carry the live count" true (contains dump "\"live\":\"4\"");
      Alcotest.(check bool) "per-job live gauge sampled" true
        (contains dump "ctl.job.watched.live");
      Alcotest.(check bool) "telemetry histograms sampled" true
        (contains dump "\"m\":\"host.mem_bytes\"");
      Alcotest.(check bool) "engine gauge sampled" true
        (contains dump "\"m\":\"engine.pending_events\""))

let () =
  Alcotest.run "splay_ctl"
    [
      ( "descriptor",
        [
          Alcotest.test_case "parse" `Quick test_descriptor_parse;
          Alcotest.test_case "defaults" `Quick test_descriptor_defaults;
          Alcotest.test_case "errors" `Quick test_descriptor_errors;
          Alcotest.test_case "roundtrip" `Quick test_descriptor_roundtrip;
          Alcotest.test_case "loss roundtrip" `Quick test_descriptor_loss_roundtrip;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "counts and positions" `Quick test_deploy_counts_and_positions;
          Alcotest.test_case "app really runs" `Quick test_deploy_app_really_runs;
          Alcotest.test_case "bootstrap head" `Quick test_deploy_bootstrap_head;
          Alcotest.test_case "superset freed" `Quick test_deploy_superset_frees_extras;
          Alcotest.test_case "instances per host" `Quick test_multiple_instances_per_host;
          Alcotest.test_case "survives dead candidates" `Quick test_deploy_survives_dead_candidates;
          Alcotest.test_case "sandbox restrictions" `Quick test_sandbox_restrictions_applied;
          Alcotest.test_case "undeploy" `Quick test_undeploy;
        ] );
      ( "control",
        [
          Alcotest.test_case "controller blacklisted" `Quick test_controller_blacklisted_for_apps;
          Alcotest.test_case "probe" `Quick test_probe;
          Alcotest.test_case "probe dead host" `Quick test_probe_dead_host;
          Alcotest.test_case "add and crash node" `Quick test_add_and_crash_node;
          Alcotest.test_case "sessions" `Quick test_sessions_mark_dead_daemons;
          Alcotest.test_case "push blacklist" `Quick test_push_blacklist;
          Alcotest.test_case "lossy deployment" `Quick test_lossy_deployment;
          Alcotest.test_case "stop and restart" `Quick test_stop_and_restart_node;
          Alcotest.test_case "two jobs coexist" `Quick test_two_jobs_coexist;
          Alcotest.test_case "job status" `Quick test_job_status;
          Alcotest.test_case "monitor emits status notes" `Quick
            test_monitor_emits_status_notes;
        ] );
    ]
