(* Failure-injection tests: sandbox kills, crashes racing in-flight RPCs,
   protocol behaviour under partial failures and lossy links. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl
module Apps = Splay_apps

let with_platform ?(hosts = 10) ?(seed = 51) f =
  Platform.run ~until:50_000.0 (Platform.create ~seed (Platform.Cluster hosts)) (fun p ->
      f (Platform.engine p) (Platform.net p) (Platform.controller p))

(* {2 Sandbox enforcement in a live deployment} *)

let test_memory_hog_is_killed_others_survive () =
  with_platform (fun _ _ ctl ->
      let main env =
        (* position 1 leaks memory until the sandbox kills it *)
        if env.Env.position = 1 then
          ignore
            (Env.thread env (fun () ->
                 while true do
                   Env.sleep 1.0;
                   Sandbox.alloc env.Env.sandbox (1024 * 1024)
                 done))
      in
      let desc =
        Descriptor.make
          ~limits:{ Sandbox.unlimited with Sandbox.max_memory = 4 * 1024 * 1024 }
          5
      in
      let dep = Controller.deploy ctl ~name:"hog" ~main desc in
      Alcotest.(check int) "all start" 5 (Controller.live_count dep);
      Env.sleep 30.0;
      (* the hog is dead, the well-behaved instances are not *)
      Alcotest.(check int) "only the hog died" 4 (Controller.live_count dep);
      let positions = List.map (fun (_, _, p) -> p) (Controller.live_members dep) in
      Alcotest.(check bool) "position 1 is gone" false (List.mem 1 positions))

let test_disk_hog_survives_with_failed_writes () =
  with_platform (fun _ _ ctl ->
      let write_errors = ref 0 in
      let main env =
        let fs = Sb_fs.create env in
        ignore
          (Env.thread env (fun () ->
               for i = 1 to 20 do
                 Env.sleep 1.0;
                 try
                   let f = Sb_fs.open_file fs (Printf.sprintf "f%d" i) ~mode:`Write in
                   Sb_fs.write f (String.make 1024 'x');
                   Sb_fs.close f
                 with Sb_fs.Fs_error _ -> incr write_errors
               done))
      in
      let desc =
        Descriptor.make ~limits:{ Sandbox.unlimited with Sandbox.max_fs_bytes = 5 * 1024 } 1
      in
      let dep = Controller.deploy ctl ~name:"disk-hog" ~main desc in
      Env.sleep 30.0;
      (* disk violations fail the operation but never kill the instance *)
      Alcotest.(check int) "instance alive" 1 (Controller.live_count dep);
      Alcotest.(check int) "writes beyond the quota failed" 15 !write_errors)

(* {2 Crashes racing in-flight RPCs} *)

let p_slow = Rpc.proc "slow" Rpc.no_args Codec.unit

let test_callee_crashes_mid_call () =
  (* direct (non-deployment) setup for precise control of the timing *)
  let eng = Engine.create ~seed:52 () in
  let tb = Testbed.cluster ~n:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let server = Env.create net ~me:(Addr.make 0 2000) in
  let client = Env.create net ~me:(Addr.make 1 2000) in
  Rpc.handle server p_slow (fun () -> Engine.sleep 30.0);
  let result = ref None in
  ignore
    (Env.thread client (fun () ->
         result := Some (Rpc.invoke client server.Env.me ~timeout:10.0 p_slow ())));
  (* kill the server while the handler sleeps *)
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Env.stop server));
  ignore (Engine.run eng);
  (match !result with
  | Some (Error Rpc.Timeout) -> ()
  | Some _ -> Alcotest.fail "expected timeout after callee death"
  | None -> Alcotest.fail "call never returned");
  Alcotest.(check (list reject)) "no crashed processes" []
    (List.map snd (Engine.crashed eng))

let test_caller_killed_mid_call () =
  let eng = Engine.create ~seed:53 () in
  let tb = Testbed.cluster ~n:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let server = Env.create net ~me:(Addr.make 0 2000) in
  let client = Env.create net ~me:(Addr.make 1 2000) in
  let served = ref 0 in
  Rpc.handle server p_slow (fun () ->
      Engine.sleep 5.0;
      incr served);
  let after_call = ref false in
  ignore
    (Env.thread client (fun () ->
         ignore (Rpc.invoke client server.Env.me p_slow ());
         after_call := true));
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Env.stop client));
  ignore (Engine.run eng);
  Alcotest.(check bool) "caller never resumed" false !after_call;
  Alcotest.(check int) "server completed the work anyway" 1 !served;
  Alcotest.(check (list reject)) "no crashes" [] (List.map snd (Engine.crashed eng))

(* {2 Protocols under injected failures} *)

let test_scribe_tree_heals_after_forwarder_crash () =
  with_platform ~hosts:12 (fun _ _ ctl ->
      let scribes = ref [] in
      let config =
        {
          Apps.Pastry.default_config with
          bits = 16;
          stabilize_interval = 2.0;
          rpc_timeout = 3.0;
          join_delay_per_position = 0.2;
        }
      in
      let main env =
        Apps.Pastry.app ~config
          ~register:(fun p -> scribes := (Apps.Scribe.create p, env) :: !scribes)
          env
      in
      let dep =
        Controller.deploy ctl ~name:"scribe" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 20)
      in
      Env.sleep 120.0;
      let topic = Apps.Scribe.topic_of_name (fst (List.hd !scribes)) "resilient" in
      let subscribers = List.filteri (fun i _ -> i < 12) !scribes in
      List.iter (fun (s, _) -> Apps.Scribe.subscribe s ~topic) subscribers;
      Env.sleep 10.0;
      (* crash a quarter of the overlay, including possibly forwarders *)
      List.iteri
        (fun i (_, a, _) -> if i mod 4 = 0 then Controller.crash_node dep a)
        (Controller.live_members dep);
      (* wait past the soft-state refresh (30 s) so trees re-graft *)
      Env.sleep 90.0;
      let live_subs =
        List.filter (fun (_, env) -> not (Env.is_stopped env)) subscribers
      in
      let publisher =
        fst (List.find (fun (_, env) -> not (Env.is_stopped env)) (List.rev !scribes))
      in
      Apps.Scribe.publish publisher ~topic ~payload:"after-crash";
      Env.sleep 20.0;
      let got =
        List.length
          (List.filter
             (fun (s, _) ->
               List.exists (fun (t, p) -> t = topic && p = "after-crash") (Apps.Scribe.delivered s))
             live_subs)
      in
      Alcotest.(check bool)
        (Printf.sprintf "most live subscribers still reached (%d/%d)" got (List.length live_subs))
        true
        (got >= List.length live_subs - 2))

let test_epidemic_with_packet_loss () =
  with_platform (fun _ net ctl ->
      let nodes = ref [] in
      ignore
        (Controller.deploy ctl ~name:"epidemic"
           ~main:
             (Apps.Epidemic.app
                ~config:{ Apps.Epidemic.fanout = 10; rpc_timeout = 3.0; oneway = false }
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Random_subset 15) 40));
      Env.sleep 5.0;
      (* drop packets only once the overlay is deployed: the lossy-link
         study targets the protocol, not the control plane *)
      Net.set_loss net 0.20;
      Apps.Epidemic.broadcast (List.hd !nodes) "wet-rumor";
      Env.sleep 30.0;
      let covered =
        List.length (List.filter (fun c -> Apps.Epidemic.has_received c "wet-rumor") !nodes)
      in
      (* 20% loss with fanout 10: epidemic redundancy still covers nearly all *)
      Alcotest.(check bool)
        (Printf.sprintf "coverage despite 20%% loss (%d/40)" covered)
        true (covered >= 35))

let test_bittorrent_leecher_churn () =
  with_platform ~hosts:12 (fun _ _ ctl ->
      let nodes = ref [] in
      let config =
        {
          Apps.Bittorrent.default_config with
          piece_size = 64 * 1024;
          choke_interval = 5.0;
          optimistic_interval = 10.0;
          tracker_interval = 15.0;
          rpc_timeout = 10.0;
        }
      in
      let dep =
        Controller.deploy ctl ~name:"bt"
          ~main:
            (Apps.Bittorrent.app ~config ~file_size:(1024 * 1024)
               ~register:(fun c -> nodes := c :: !nodes))
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 10)
      in
      Env.sleep 30.0;
      (* kill two leechers mid-download (never the seed/tracker) *)
      let victims =
        List.filter (fun (_, _, pos) -> pos = 3 || pos = 5) (Controller.live_members dep)
      in
      List.iter (fun (_, a, _) -> Controller.crash_node dep a) victims;
      let rec wait budget =
        Env.sleep 30.0;
        let live = List.filter (fun c -> not (Apps.Bittorrent.is_stopped c)) !nodes in
        if budget > 0.0 && not (List.for_all Apps.Bittorrent.complete live) then
          wait (budget -. 30.0)
      in
      wait 900.0;
      let live = List.filter (fun c -> not (Apps.Bittorrent.is_stopped c)) !nodes in
      Alcotest.(check int) "eight peers remain" 8 (List.length live);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "survivor complete (%d/%d)" (Apps.Bittorrent.pieces_have c)
               (Apps.Bittorrent.total_pieces c))
            true (Apps.Bittorrent.complete c))
        live)

let test_cyclon_connectivity_after_churn () =
  with_platform (fun _ _ ctl ->
      let nodes = ref [] in
      let config =
        { Apps.Cyclon.default_config with period = 2.0; cache_size = 8; shuffle_length = 4; rpc_timeout = 3.0 }
      in
      let dep =
        Controller.deploy ctl ~name:"cyclon"
          ~main:(Apps.Cyclon.app ~config ~register:(fun c -> nodes := c :: !nodes))
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 30)
      in
      Env.sleep 60.0;
      List.iteri
        (fun i (_, a, _) -> if i mod 3 = 0 then Controller.crash_node dep a)
        (Controller.live_members dep);
      Env.sleep 120.0;
      let live = List.filter (fun c -> not (Apps.Cyclon.is_stopped c)) !nodes in
      let live_addrs =
        List.map (fun c -> Addr.to_string (Apps.Cyclon.self c).Apps.Node.addr) live
      in
      (* dead entries age out through shuffles; caches point mostly at live peers *)
      let stale = ref 0 and total = ref 0 in
      List.iter
        (fun c ->
          List.iter
            (fun n ->
              incr total;
              if not (List.mem (Addr.to_string n.Apps.Node.addr) live_addrs) then incr stale)
            (Apps.Cyclon.neighbors c))
        live;
      let stale_frac = Float.of_int !stale /. Float.of_int (max 1 !total) in
      Alcotest.(check bool)
        (Printf.sprintf "stale entries mostly purged (%.0f%%)" (100.0 *. stale_frac))
        true (stale_frac < 0.25);
      (* the union graph over live nodes stays connected *)
      let adj = Hashtbl.create 64 in
      let add a b =
        let l = Option.value ~default:[] (Hashtbl.find_opt adj a) in
        if not (List.mem b l) then Hashtbl.replace adj a (b :: l)
      in
      List.iter
        (fun c ->
          let me = Addr.to_string (Apps.Cyclon.self c).Apps.Node.addr in
          List.iter
            (fun n ->
              let other = Addr.to_string n.Apps.Node.addr in
              if List.mem other live_addrs then begin
                add me other;
                add other me
              end)
            (Apps.Cyclon.neighbors c))
        live;
      let visited = Hashtbl.create 64 in
      let rec bfs = function
        | [] -> ()
        | x :: rest ->
            if Hashtbl.mem visited x then bfs rest
            else begin
              Hashtbl.replace visited x ();
              bfs (Option.value ~default:[] (Hashtbl.find_opt adj x) @ rest)
            end
      in
      bfs [ List.hd live_addrs ];
      Alcotest.(check int) "live overlay connected" (List.length live) (Hashtbl.length visited))

let () =
  Alcotest.run "splay_robustness"
    [
      ( "sandbox",
        [
          Alcotest.test_case "memory hog killed" `Quick test_memory_hog_is_killed_others_survive;
          Alcotest.test_case "disk hog survives" `Quick test_disk_hog_survives_with_failed_writes;
        ] );
      ( "rpc races",
        [
          Alcotest.test_case "callee crashes mid-call" `Quick test_callee_crashes_mid_call;
          Alcotest.test_case "caller killed mid-call" `Quick test_caller_killed_mid_call;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "scribe heals" `Quick test_scribe_tree_heals_after_forwarder_crash;
          Alcotest.test_case "epidemic vs loss" `Quick test_epidemic_with_packet_loss;
          Alcotest.test_case "bittorrent leecher churn" `Quick test_bittorrent_leecher_churn;
          Alcotest.test_case "cyclon after churn" `Quick test_cyclon_connectivity_after_churn;
        ] );
    ]
