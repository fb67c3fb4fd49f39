(* Tests for the controller side: descriptors, daemons, deployment
   protocol, sessions, blacklist. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl
open Support

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
  let d' =
    Descriptor.parse
      "--[[ BEGIN SPLAY RESOURCES RESERVATION\nnb_splayd 64\nnodes random 5\nmax_mem 1048576\nEND \
       SPLAY RESOURCES RESERVATION ]]"
  in
  Alcotest.(check bool) "header form parses to the made descriptor" true (d = d');
  Alcotest.(check int) "nb" 64 d'.Descriptor.nb_splayd;
  (match d'.Descriptor.bootstrap with
  | Descriptor.Random_subset 5 -> ()
  | _ -> Alcotest.fail "bootstrap");
  Alcotest.(check int) "mem" (1 lsl 20) d'.Descriptor.limits.Sandbox.max_memory

(* {2 Daemon core} *)

(* The instance lifecycle every daemon shares, driven directly: ports,
   LIST, the START refusals, FREE of an unknown port, and the usage fold. *)
let test_instances_lifecycle () =
  let eng = Engine.create ~seed:3 () in
  let net = Net.create eng (Testbed.cluster ~n:2 (Engine.rng eng)) in
  let tbl = Instances.create ~host:1 in
  let started = ref [] in
  let main env =
    started := Engine.proc_name (Engine.self ()) :: !started;
    let sb = env.Env.sandbox in
    Sandbox.alloc sb (1000 * env.Env.position);
    Sandbox.socket_opened sb;
    Sandbox.fs_grow sb 10;
    (* one outstanding call to a silent port keeps a fiber and an RPC live *)
    let p_absent = Rpc.proc "nobody.home" Rpc.no_args Codec.unit in
    ignore (Rpc.invoke env (Addr.make 0 99) ~timeout:50.0 p_absent ())
  in
  let register job =
    Instances.register tbl ~job ~name:"app" ~main (fun port -> Env.create net ~me:(Addr.make 1 port))
  in
  let ports = List.map register [ 7; 7; 8 ] in
  Alcotest.(check (list int)) "ports from 2000" [ 2000; 2001; 2002 ] ports;
  let port i = i.Instances.env.Env.me.Addr.port in
  Alcotest.(check (list int)) "newest first" [ 2002; 2001; 2000 ] (List.map port (Instances.all tbl));
  let ok = Alcotest.(result unit string) in
  let is_error r = Alcotest.(check bool) "refused" true (Result.is_error r) in
  let nodes = [ Addr.make 0 2000; Addr.make 1 2000 ] in
  Alcotest.check ok "list" (Ok ()) (Instances.list tbl ~port:2000 ~position:3 ~nodes);
  Alcotest.check ok "list" (Ok ()) (Instances.list tbl ~port:2002 ~position:4 ~nodes);
  let env0 = (Option.get (Instances.find tbl 2000)).env in
  Alcotest.(check int) "list sets the position" 3 env0.Env.position;
  Alcotest.(check bool) "list sets the nodes" true (env0.Env.nodes = nodes);
  is_error (Instances.list tbl ~port:1234 ~position:1 ~nodes);
  Alcotest.check ok "start" (Ok ()) (Instances.start tbl ~job:7 ~port:2000);
  is_error (Instances.start tbl ~job:7 ~port:2000);
  is_error (Instances.start tbl ~job:7 ~port:2002);
  Alcotest.check ok "start" (Ok ()) (Instances.start tbl ~job:8 ~port:2002);
  Alcotest.(check bool) "free of an unknown port" false (Instances.free tbl ~port:1234);
  Alcotest.(check int) "no-op" 3 (Instances.count tbl);
  Alcotest.(check bool) "free" true (Instances.free tbl ~port:2001);
  is_error (Instances.start tbl ~job:7 ~port:2001);
  Alcotest.(check int) "freed" 2 (Instances.count tbl);
  ignore (Engine.run ~until:1.0 eng);
  Alcotest.(check (list string)) "main runs in NAME@HOST" [ "app@1"; "app@1" ] !started;
  let u = Instances.usage tbl in
  let sum f = List.fold_left (fun acc i -> acc + f i.Instances.env) 0 (Instances.all tbl) in
  let sb f env = f env.Env.sandbox in
  Alcotest.(check int) "mem" (sum (sb Sandbox.memory_used)) u.mem;
  Alcotest.(check int) "mem is the allocations" 7000 u.mem;
  Alcotest.(check int) "sockets" (sum (sb Sandbox.sockets_open)) u.sockets;
  Alcotest.(check int) "fs" (sum (sb Sandbox.fs_used)) u.fs;
  Alcotest.(check int) "fibers" (sum Env.live_procs) u.fibers;
  Alcotest.(check int) "inflight" (sum Telemetry.inflight_rpcs) u.inflight;
  Alcotest.(check int) "both calls outstanding" 2 u.inflight;
  Instances.shutdown tbl;
  Alcotest.(check int) "shutdown empties the table" 0 (Instances.count tbl);
  Alcotest.(check bool) "and stops the instances" true (Env.is_stopped env0)

(* {2 Deployment fixtures} *)

let with_platform ?(hosts = 10) ?daemon_config f =
  Platform.run ~until:36000.0 (Platform.create ~seed:11 ?daemon_config (Platform.Cluster hosts))
    (fun p -> f (Platform.engine p) (Platform.net p) (Platform.controller p) (Platform.daemons p))

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
        Log.info (Env.log env) "instance %d up" env.Env.position
      in
      let dep = Controller.deploy ctl ~name:"counter" ~main (Descriptor.make 8) in
      Env.sleep 1.0;
      Alcotest.(check int) "all instances executed" 8 !ran;
      Alcotest.(check int) "log collector got the lines" 8 (Deploy.log_lines (Controller.job_logs dep));
      Alcotest.(check bool) "log bytes counted" true (Deploy.log_bytes (Controller.job_logs dep) > 0))

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
        result := Some (Rpc.invoke env ctl_addr ~timeout:5.0 Daemon.proc_heartbeat 0)
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
      Testbed.set_host_up (Net.testbed net) (Daemon.host d) false;
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

(* {2 The deploy core over a fake transport} *)

(* Registration outcomes follow call order, so the scenario does not
   depend on how selection shuffles the pool: round 1 (5 slots for 4
   instances) meets a daemon that never answers, a refusal, two acks and
   another silent daemon; the refill round (3 slots for the 2 missing)
   gets three acks, the slowest of which arrives after the quota is full
   and must be FREEd. Host 5 is dead and host 6 fails the criterion. *)
let test_core_fake_transport () =
  let eng = Engine.create ~seed:3 () in
  let tb = Testbed.cluster ~n:7 (Engine.rng eng) in
  let outcomes =
    [| `Silent; `Refuse; `Ack 0.3; `Ack 0.1; `Silent; `Ack 0.2; `Ack 0.1; `Ack 0.5 |]
  in
  let calls = ref 0 and starts = ref [] and frees = ref [] in
  let tr =
    {
      Deploy.spawn = (fun f -> ignore (Engine.spawn eng f));
      pace = ignore;
      register =
        (fun d ->
          let k = !calls in
          incr calls;
          match outcomes.(k) with
          | `Silent ->
              Engine.sleep 10.0;
              None
          | `Refuse ->
              Engine.sleep 0.05;
              None
          | `Ack dt ->
              Engine.sleep dt;
              Some (Addr.make d (2000 + k)));
      start =
        (fun _ a ~position ~nodes ->
          starts := (a, position, List.length nodes) :: !starts;
          true);
      free = (fun _ a -> frees := a.Addr.port - 2000 :: !frees);
    }
  in
  let rng = Rng.create 1 in
  let select n =
    Deploy.select rng
      ~criteria:[ Deploy.Custom (fun h -> h.Testbed.id <> 6) ]
      ~alive:(fun d -> d <> 5) ~host:(Testbed.host tb) (List.init 7 Fun.id) n
  in
  let result = ref None in
  ignore
    (Engine.spawn eng (fun () ->
         result :=
           Some
             (Deploy.deploy tr rng ~select ~superset:1.25 ~job:0 ~name:"fake"
                (Descriptor.make ~bootstrap:Descriptor.All 4))));
  ignore (Engine.run eng);
  Alcotest.(check int) "no crashed process" 0 (List.length (Engine.crashed eng));
  match !result with
  | None -> Alcotest.fail "deploy never returned"
  | Some (members, report) ->
      Alcotest.(check (list (pair int int)))
        "need reached; positions follow ack order across rounds"
        [ (3, 1); (2, 2); (6, 3); (5, 4) ]
        (List.map (fun (_, a, pos) -> (a.Addr.port - 2000, pos)) members);
      Alcotest.(check int) "5 REGISTERs, then a refill round of 3" 8 !calls;
      Alcotest.(check (list int)) "exactly the late ack is FREEd" [ 7 ] !frees;
      Alcotest.(check int) "every member STARTed once" 4 (List.length !starts);
      List.iter
        (fun (_, _, n) -> Alcotest.(check int) "bootstrap All lists every member" 4 n)
        !starts;
      Alcotest.(check bool) "report charges the dead host and the criterion" true
        (report
        = { Deploy.sel_alive = 6; sel_dead = 1; sel_matched = 5; sel_rejected = [ ("custom", 1) ] })

(* {2 The daemon on a synthetic testbed}

   The live loop's testbed keeps no host records. REGISTER / LIST /
   START / FREE through [Daemon] there, once in process and once with
   every message crossing as its JSON text, as between the live
   controller and a splayd: both runs end with the same members, the
   same instances and the same bootstrap lists handed to them. *)
let deploy_on_synthetic ~routed =
  let eng = Engine.create ~seed:9 () in
  let net = Net.create eng (Testbed.synthetic ~hosts:5 (Engine.rng eng)) in
  if routed then Support.route_messages ~wire:true eng net;
  let ctl = Env.create net ~me:(Addr.make 4 1) in
  Rpc.handle ctl Daemon.proc_heartbeat ignore;
  let ran = ref [] in
  let spec =
    {
      Daemon.js_name = "app";
      js_main =
        (fun env ->
          ran :=
            Printf.sprintf "%s@%d<-%s" (Addr.to_string env.Env.me) env.Env.position
              (String.concat "," (List.map Addr.to_string env.Env.nodes))
            :: !ran);
      js_limits = Sandbox.unlimited;
      js_log_sink = Log.Discard;
      js_log_level = Log.Info;
      js_loss = 0.0;
    }
  in
  let daemons =
    List.init 4 (fun host ->
        Daemon.start net ~host ~controller:ctl.Env.me ~lookup_job:(fun _ -> Some spec) ())
  in
  let members = ref [] in
  ignore
    (Env.thread ctl (fun () ->
         let rng = Rng.create 1 in
         let select n =
           Deploy.select rng ~alive:(fun _ -> true) ~host:(fun _ -> assert false) daemons n
         in
         let ms, _ =
           Deploy.deploy (Deploy.transport ctl ~addr:Daemon.addr ~job:0) rng ~select ~job:0
             ~name:"app" (Descriptor.make ~bootstrap:Descriptor.All 4)
         in
         members := List.map (fun (_, a, pos) -> Printf.sprintf "%s@%d" (Addr.to_string a) pos) ms));
  ignore (Engine.run ~until:200.0 eng);
  let instances =
    List.concat_map
      (fun d -> List.map (fun i -> Addr.to_string i.Instances.env.Env.me) (Daemon.instances d))
      daemons
  in
  (!members, List.sort compare instances, List.sort compare !ran)

let test_daemon_on_synthetic_testbed () =
  let members, instances, ran = deploy_on_synthetic ~routed:false in
  Alcotest.(check int) "4 members" 4 (List.length members);
  Alcotest.(check int) "the straggler is freed" 4 (List.length instances);
  Alcotest.(check int) "every member ran" 4 (List.length ran);
  let members', instances', ran' = deploy_on_synthetic ~routed:true in
  Alcotest.(check (list string)) "same members over the wire" members members';
  Alcotest.(check (list string)) "same instances over the wire" instances instances';
  Alcotest.(check (list string)) "same starts over the wire" ran ran'

let test_sessions_mark_dead_daemons () =
  (* short unseen timeout so the test does not simulate an hour *)
  let p = Platform.create ~seed:3 ~unseen_timeout:200.0 (Platform.Cluster 4) in
  Platform.run ~until:1000.0 p (fun p ->
      let ctl = Platform.controller p in
      Env.sleep 100.0;
      Alcotest.(check int) "all alive while heartbeating" 4
        (List.length (Controller.alive_daemons ctl));
      Testbed.set_host_up (Net.testbed (Platform.net p)) (Daemon.host (List.hd (Platform.daemons p))) false;
      Env.sleep 400.0;
      Alcotest.(check int) "silent daemon dropped" 3 (List.length (Controller.alive_daemons ctl)))

let test_deploy_survives_dead_candidates () =
  with_platform ~hosts:8 (fun _ net ctl daemons ->
      (* two hosts die before deployment: registration to them times out,
         refill rounds cover the shortfall *)
      Testbed.set_host_up (Net.testbed net) (Daemon.host (List.nth daemons 0)) false;
      Testbed.set_host_up (Net.testbed net) (Daemon.host (List.nth daemons 1)) false;
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
      let p_noop = Rpc.proc "noop" Rpc.no_args Codec.unit in
      let main env =
        Rpc.handle env p_noop Fun.id;
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
            match Rpc.invoke a b.Env.me ~timeout:1.0 p_noop () with
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
  let d' =
    Descriptor.parse
      "--[[ BEGIN SPLAY RESOURCES RESERVATION\nnb_splayd 3\nnodes head 1\nloss 0.25\nEND SPLAY \
       RESOURCES RESERVATION ]]"
  in
  Alcotest.(check bool) "header form parses to the made descriptor" true (d = d');
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
      Testbed.set_host_up (Net.testbed net) a.Addr.host false;
      let st = Controller.job_status dep in
      Alcotest.(check bool) "host counted down" true (st.Controller.st_hosts_down >= 1);
      Alcotest.(check bool) "its instances not live" true (st.Controller.st_live < 5);
      Testbed.set_host_up (Net.testbed net) a.Addr.host true;
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
          Alcotest.test_case "core over a fake transport" `Quick test_core_fake_transport;
          Alcotest.test_case "daemon on a synthetic testbed" `Quick test_daemon_on_synthetic_testbed;
        ] );
      ( "daemon core",
        [ Alcotest.test_case "instance lifecycle" `Quick test_instances_lifecycle ] );
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
