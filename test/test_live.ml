(* Tests for the live execution backend: the framed control-plane wire
   protocol (round-trips, torn reads, corrupt input), the RPC payload
   wire form, real-RSS sandbox enforcement, the sim-vs-live contract
   machinery, and a real three-daemon end-to-end deployment over
   loopback TCP. *)

open Splay_net
open Splay_runtime
open Splay_ctl
module Live = Splay_live

(* {2 Wire framing} *)

let sample_msgs =
  [
    Wire.Hello { host = 3; pid = 1234; data_port = 45678 };
    Wire.Peers { epoch = 1723111.25; ctl = 3; peers = [ (0, 1111); (1, 2222); (2, 3333) ] };
    Wire.Shutdown;
    Wire.Logline
      { time = 12.5; node = "app.1"; level = Log.Warn; text = "REPORT done lookups=5 ok=5" };
    Wire.Chunk { host = 0; kind = "trace"; data = "{\"ev\":\"S\"}\n"; final = true };
    Wire.Bye { host = 0 };
    Wire.App
      {
        src = Addr.make 0 9000;
        dst = Addr.make 1 9000;
        size = 52;
        payload = Codec.Assoc [ ("k", Codec.String "q"); ("rid", Codec.Int 7) ];
      };
  ]

let feed_string d s = Wire.feed d (Bytes.of_string s) 0 (String.length s)

let test_wire_roundtrip () =
  List.iter
    (fun m ->
      let d = Wire.decoder () in
      feed_string d (Wire.frame_msg m);
      Alcotest.(check bool) "msg round-trips through its frame" true (Wire.next_msg d = Some m))
    sample_msgs

let test_wire_stream () =
  (* All samples framed back to back through one decoder. *)
  let d = Wire.decoder () in
  feed_string d (String.concat "" (List.map Wire.frame_msg sample_msgs));
  let decoded = ref [] in
  let rec drain () =
    match Wire.next_msg d with
    | Some m ->
        decoded := m :: !decoded;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all frames decoded" (List.length sample_msgs) (List.length !decoded);
  Alcotest.(check bool) "in order, intact" true (List.rev !decoded = sample_msgs);
  (* no residue: the next frame decodes on its own *)
  let last = List.hd !decoded in
  feed_string d (Wire.frame_msg last);
  Alcotest.(check bool) "no residue" true (Wire.next_msg d = Some last && Wire.next_msg d = None)

let test_wire_truncated () =
  (* A frame torn at every possible byte boundary is incomplete — never
     an error, never a desync: completing it always yields the
     message. *)
  let m = List.nth sample_msgs 3 (* Logline: the largest *) in
  let s = Wire.frame_msg m in
  for cut = 0 to String.length s - 1 do
    let d = Wire.decoder () in
    feed_string d (String.sub s 0 cut);
    (match Wire.next_msg d with
    | None -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "frame complete at cut %d?" cut));
    feed_string d (String.sub s cut (String.length s - cut));
    match Wire.next_msg d with
    | Some m' -> Alcotest.(check bool) "reassembled" true (m = m')
    | None -> Alcotest.fail (Printf.sprintf "frame lost at cut %d" cut)
  done

let test_wire_garbage () =
  let rejects what s =
    let d = Wire.decoder () in
    feed_string d s;
    match Wire.next_msg d with
    | exception Codec.Parse_error _ -> ()
    | Some _ -> Alcotest.fail (what ^ ": decoded garbage")
    | None -> Alcotest.fail (what ^ ": silently swallowed")
  in
  rejects "bad magic" "XYZ\x01\x00\x00\x00\x02{}";
  rejects "bad version" "SPW\x7f\x00\x00\x00\x02{}";
  (* length far beyond max_frame *)
  rejects "absurd length" "SPW\x01\x7f\xff\xff\xff";
  (* valid header, payload that is not valid codec *)
  rejects "corrupt payload" "SPW\x01\x00\x00\x00\x04!!!!";
  (* valid codec value of the wrong shape *)
  let d = Wire.decoder () in
  let payload = Codec.encode (Codec.Assoc [ ("t", Codec.String "nonsense") ]) in
  let header = Bytes.of_string "SPW\x01\x00\x00\x00\x00" in
  Bytes.set_int32_be header 4 (Int32.of_int (String.length payload));
  feed_string d (Bytes.to_string header ^ payload);
  (match Wire.next_msg d with
  | exception Codec.Parse_error _ -> ()
  | _ -> Alcotest.fail "unknown tag accepted")

(* Torn reads at arbitrary boundaries never desynchronize the stream:
   whatever the chunking, the decoded sequence is the sent sequence. *)
let wire_torn_read_prop =
  let blob = String.concat "" (List.map Wire.frame_msg sample_msgs) in
  let n = String.length blob in
  QCheck.Test.make ~name:"wire: any read chunking decodes the same message sequence" ~count:200
    QCheck.(small_list (int_bound (n - 1)))
    (fun cuts ->
      let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) in
      let d = Wire.decoder () in
      let decoded = ref [] in
      let rec drain () =
        match Wire.next_msg d with
        | Some m ->
            decoded := m :: !decoded;
            drain ()
        | None -> ()
      in
      let prev = ref 0 in
      List.iter
        (fun c ->
          feed_string d (String.sub blob !prev (c - !prev));
          drain ();
          prev := c)
        (cuts @ [ n ]);
      List.rev !decoded = sample_msgs)

(* {2 RPC payload wire form} *)

(* The Request/Reply constructors are private to Rpc; exercise the wire
   form at the value level: decoding a canonical wire value and
   re-encoding it must be the identity. *)
let test_rpc_payload_roundtrip () =
  let open Codec in
  let samples =
    [
      Assoc
        [
          ("k", String "q"); ("rid", Int 12); ("proc", String "find_successor");
          ("args", List [ Int 99 ]); ("tid", Int 31); ("sid", Int 17);
        ];
      Assoc
        [
          ("k", String "q"); ("rid", Int (-1)); ("proc", String "notify"); ("args", List []);
          ("tid", Int 0); ("sid", Int 0);
        ];
      Assoc [ ("k", String "p"); ("rid", Int 12); ("ok", String "yes") ];
      Assoc [ ("k", String "p"); ("rid", Int 12); ("err", String "no route") ];
    ]
  in
  List.iter
    (fun v ->
      match Rpc.payload_to_value (Rpc.payload_of_value v) with
      | Some v' -> Alcotest.(check bool) "decode/encode is the identity" true (v = v')
      | None -> Alcotest.fail "decoded payload lost its wire form")
    samples;
  match Rpc.payload_of_value (Assoc [ ("k", String "zzz") ]) with
  | exception Codec.Parse_error _ -> ()
  | _ -> Alcotest.fail "unknown payload kind accepted"

(* Typed procedures across a process boundary. Every message takes the
   net's routed path (as between partitions); with [wire] it also leaves
   through [Rpc.payload_to_value], crosses as JSON text and comes back
   through [Rpc.payload_of_value], as between two splayd processes: each handler's arguments and each
   caller's result are parsed by its own types. Every procedure the
   overlays define is used (Pastry joins, leafset exchanges, announces
   and routes, Dht_store stores and fetches, Chord and Chord-FT
   maintenance and lookups). Each message was charged the length of its
   encoding, and the run ends exactly as the one whose messages stayed
   values. *)
module Apps = Splay_apps
module Engine = Splay_sim.Engine

let typed_overlays ~wire =
  let eng = Engine.create ~seed:5 () in
  let hosts = 24 in
  let net = Net.create eng (Testbed.synthetic ~hosts (Engine.rng eng)) in
  let crossed = ref 0 and mis_sized = ref [] in
  let request_bytes v =
    match Codec.to_string (Codec.member "k" v) with
    | "q" ->
        32
        + String.length (Codec.to_string (Codec.member "proc" v))
        + List.fold_left
            (fun acc a -> acc + Codec.encoded_size a)
            0
            (Codec.to_list (Codec.member "args" v))
    | _ -> (
        match Codec.member "ok" v with
        | ok -> 32 + Codec.encoded_size ok
        | exception Codec.Parse_error _ ->
            32 + String.length (Codec.to_string (Codec.member "err" v)))
  in
  Support.route_messages ~wire eng net ~on_wire:(fun v size ->
      incr crossed;
      if request_bytes v <> size then mis_sized := Codec.encode v :: !mis_sized);
  let env host ~position ~nodes = Env.create net ~me:(Addr.make host 2000) ~position ~nodes in
  (* joined rings, one per overlay, six hosts each *)
  let ring first app =
    let rdv = Addr.make first 2000 in
    List.init 6 (fun i ->
        let e = env (first + i) ~position:(i + 1) ~nodes:[ rdv ] in
        let node = ref None in
        ignore (Env.thread e (fun () -> app ~register:(fun n -> node := Some n) e));
        node)
  in
  let pastry = ring 0 (Apps.Pastry.app ~config:Apps.Pastry.default_config) in
  let chord = ring 6 (Apps.Chord.app ~config:Apps.Chord.default_config) in
  let chord_ft = ring 12 (Apps.Chord_ft.app ~config:Apps.Chord_ft.default_config) in
  (* an assembled Pastry ring under a store, six hosts *)
  let members =
    Array.init 6 (fun i -> Apps.Node.make ~id:(i lsl 28) ~addr:(Addr.make (18 + i) 2000))
  in
  let client = Env.create net ~me:members.(0).Apps.Node.addr in
  let stores =
    Array.mapi
      (fun index m ->
        let node = ref None in
        Apps.Pastry.assemble ~ring:members ~index
          ~register:(fun p -> node := Some p)
          (if index = 0 then client else Env.create net ~me:m.Apps.Node.addr);
        Apps.Dht_store.create
          ~config:{ Apps.Dht_store.default_config with republish_interval = 0.0 }
          (Option.get !node))
      members
  in
  let got = ref [] in
  ignore
    (Env.thread client (fun () ->
         Engine.sleep 120.0;
         for k = 0 to 9 do
           let key = Printf.sprintf "k%d" k in
           ignore (Apps.Dht_store.put stores.(k mod 6) ~key ~value:(String.make k 'v'));
           got := Apps.Dht_store.get stores.((k + 3) mod 6) ~key :: !got
         done;
         List.iter
           (fun n ->
             match Apps.Chord.lookup (Option.get !n) 12345 with
             | Some (o, _) -> got := Some (string_of_int o.Apps.Node.id) :: !got
             | None -> got := None :: !got)
           chord));
  ignore (Engine.run ~until:300.0 eng);
  let ids l = String.concat "," (List.map (fun n -> string_of_int n.Apps.Node.id) l) in
  let outcome =
    String.concat "\n"
      (List.map (fun n -> ids (Apps.Pastry.leafset (Option.get !n))) pastry
      @ List.map (fun n -> ids (Option.to_list (Apps.Chord.successor (Option.get !n)))) chord
      @ List.map (fun n -> ids (Apps.Chord_ft.successors (Option.get !n))) chord_ft
      @ List.map (Option.value ~default:"-") !got
      @ [ Printf.sprintf "%d msgs, %d bytes" (Net.messages_sent net) (Net.bytes_sent net) ])
  in
  (outcome, !crossed, !mis_sized)

let test_typed_rpc_wire () =
  let local, _, _ = typed_overlays ~wire:false in
  let wired, crossed, mis_sized = typed_overlays ~wire:true in
  Alcotest.(check bool) "messages crossed the wire" true (crossed > 1000);
  Alcotest.(check (list string)) "every message charged its encoding's bytes" [] mis_sized;
  Alcotest.(check string) "same run as with values in process" local wired

(* Every procedure of the control plane, called across a net whose
   messages all cross as JSON text, as between the live controller and a
   splayd: each handler receives exactly the argument its caller sent,
   and each caller exactly the result the handler returned. *)
let test_control_procs_wire () =
  let eng = Engine.create ~seed:3 () in
  let net = Net.create eng (Testbed.synthetic ~hosts:2 (Engine.rng eng)) in
  let crossed = ref 0 in
  Support.route_messages ~wire:true eng net ~on_wire:(fun _ _ -> incr crossed);
  let server = Env.create net ~me:(Addr.make 1 1) and client = Env.create net ~me:(Addr.make 0 1) in
  Rpc.client client;
  let bad = ref [] and served = ref 0 in
  let roundtrip name proc arg reply =
    let got = ref None in
    Rpc.handle server proc (fun a ->
        got := Some a;
        reply);
    match Rpc.invoke client server.Env.me ~timeout:5.0 proc arg with
    | Ok r when r = reply && !got = Some arg -> incr served
    | _ -> bad := name :: !bad
  in
  let job =
    {
      Daemon.jd_app = "chord";
      jd_params = [ ("m", "16"); ("lookups", "5") ];
      jd_limits = { Sandbox.unlimited with Sandbox.max_memory = 1 lsl 20 };
      jd_log_level = Log.Warn;
    }
  in
  ignore
    (Env.thread client (fun () ->
         roundtrip "splayd.probe" Daemon.proc_probe (String.make 100 'x') ();
         roundtrip "splayd.register" Daemon.proc_register 7 2001;
         roundtrip "splayd.list" Daemon.proc_list (2001, 3, [ Addr.make 0 2000; Addr.make 1 2001 ]) ();
         roundtrip "splayd.start" Daemon.proc_start (7, 2001) ();
         roundtrip "splayd.free" Daemon.proc_free 2001 ();
         roundtrip "splayd.stop" Daemon.proc_stop 2001 ();
         roundtrip "splayd.blacklist" Daemon.proc_blacklist 4 ();
         roundtrip "ctl.heartbeat" Daemon.proc_heartbeat 1 ();
         roundtrip "splayd.job" Daemon.proc_job (7, job) ()));
  ignore (Engine.run ~until:60.0 eng);
  Alcotest.(check (list string)) "every procedure round-trips" [] !bad;
  Alcotest.(check int) "all nine served" 9 !served;
  Alcotest.(check int) "each request and reply crossed as text" 18 !crossed

(* {2 Real-resource sandbox enforcement} *)

let test_sandbox_rss () =
  let sb = Sandbox.create ~limits:{ Sandbox.unlimited with Sandbox.max_memory = 1 lsl 20 } () in
  let killed = ref None in
  Sandbox.set_on_kill sb (fun reason -> killed := Some reason);
  Sandbox.check_rss sb (1 lsl 19);
  Alcotest.(check bool) "under the limit: no kill" true (!killed = None);
  (match Sandbox.check_rss sb (2 lsl 20) with
  | exception Sandbox.Violation msg ->
      (* identical failure mode to the simulated alloc path *)
      Alcotest.(check string) "same message as alloc"
        (Printf.sprintf "memory limit exceeded (%d > %d bytes)" (2 lsl 20) (1 lsl 20))
        msg
  | () -> Alcotest.fail "over the limit: no violation");
  Alcotest.(check bool) "kill callback fired" true (!killed <> None)

let test_rss_sample () =
  let rss = Live.Rss.sample () in
  Alcotest.(check bool) "a real process has a positive RSS" true (rss > 0)

(* {2 Contract: report parsing and invariant diff} *)

let reports =
  [
    ("app.1", "REPORT ring id=0 succ=21845 pred=43690");
    ("app.2", "REPORT ring id=21845 succ=43690 pred=0");
    ("app.3", "REPORT ring id=43690 succ=0 pred=21845");
    ("app.1", "REPORT lookup key=1000 owner=21845 hops=1");
    ("app.1", "REPORT lookup key=50000 owner=0 hops=2");
    ("app.1", "REPORT msgs calls=9");
    ("app.1", "REPORT done lookups=2 ok=2");
    ("app.1", "this is not evidence");
  ]

let test_contract_summary () =
  let s = Live.Contract.summary_of_reports reports in
  Alcotest.(check int) "ring size" 3 (List.length s.Live.Contract.ring);
  Alcotest.(check bool) "ring sorted and intact" true
    (s.Live.Contract.ring = [ (0, 21845, 43690); (21845, 43690, 0); (43690, 0, 21845) ]);
  Alcotest.(check bool) "lookups in issue order" true
    (s.Live.Contract.lookups = [ (1000, Some (21845, 1)); (50000, Some (0, 2)) ]);
  Alcotest.(check bool) "calls" true (s.Live.Contract.calls = Some 9);
  Alcotest.(check bool) "done" true (s.Live.Contract.done_ok = Some (2, 2))

let test_contract_diff () =
  let s = Live.Contract.summary_of_reports reports in
  Alcotest.(check (list string)) "a summary matches itself" []
    (Live.Contract.diff ~sim:s ~live:s ());
  (* a live run that resolved a key to the wrong owner must be caught *)
  let bad =
    {
      s with
      Live.Contract.lookups = [ (1000, Some (43690, 1)); (50000, Some (0, 2)) ];
    }
  in
  Alcotest.(check bool) "wrong owner is a violation" true
    (Live.Contract.diff ~sim:s ~live:bad () <> []);
  (* a torn ring must be caught *)
  let torn = { s with Live.Contract.ring = [ (0, 0, 0) ] } in
  Alcotest.(check bool) "ring divergence is a violation" true
    (Live.Contract.diff ~sim:s ~live:torn () <> []);
  (* message counts: small divergence tolerated, large flagged *)
  let drift = { s with Live.Contract.calls = Some 11 } in
  Alcotest.(check (list string)) "small call-count drift tolerated" []
    (Live.Contract.diff ~sim:s ~live:drift ());
  let blowup = { s with Live.Contract.calls = Some 90 } in
  Alcotest.(check bool) "10x call blow-up is a violation" true
    (Live.Contract.diff ~sim:s ~live:blowup () <> [])

let test_contract_sim_deterministic () =
  Live.Live_apps.init ();
  let params = [ ("m", "16"); ("lookups", "5"); ("seed", "7") ] in
  let run () =
    match Live.Contract.run_sim ~seed:7 ~n:4 ~app:"chord" ~params () with
    | Ok r -> r
    | Error e -> Alcotest.fail ("sim twin failed: " ^ e)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same evidence" true (a = b);
  let s = Live.Contract.summary_of_reports a in
  Alcotest.(check int) "every instance reported its ring position" 4
    (List.length s.Live.Contract.ring);
  Alcotest.(check bool) "all lookups resolved" true (s.Live.Contract.done_ok = Some (5, 5))

(* {2 End to end: a real deployment over loopback TCP} *)

let e2e_params = [ ("m", "16"); ("lookups", "5"); ("seed", "7") ]

let e2e_cfg ~out_dir =
  let splayd = "../bin/splayd.exe" in
  if not (Sys.file_exists splayd) then Alcotest.fail ("missing " ^ splayd);
  {
    Live.Ctl.default_cfg with
    Live.Ctl.c_app = "chord";
    c_params = e2e_params;
    c_daemons = 3;
    c_desc = { Descriptor.default with Descriptor.bootstrap = Descriptor.All; nb_splayd = 3 };
    c_out_dir = out_dir;
    c_splayd = splayd;
    c_trace = true;
    c_deadline = 60.0;
    c_seed = 7;
  }

(* Every forked daemon is gone. *)
let check_reaped out_dir =
  let (_, ctl_alive), daemons = Live.Ctl.status out_dir in
  Alcotest.(check bool) "controller record is this process" true ctl_alive;
  List.iter
    (fun (host, _, alive, _) ->
      Alcotest.(check bool) (Printf.sprintf "daemon %d reaped" host) false alive)
    daemons

let test_live_e2e () =
  Live.Live_apps.init ();
  let o = Live.Ctl.run (e2e_cfg ~out_dir:"_live_e2e") in
  List.iter (fun f -> Printf.printf "live failure: %s\n" f) o.Live.Ctl.r_failures;
  Alcotest.(check bool) "live run ok" true o.Live.Ctl.r_ok;
  (* the shared deploy conversation: the job to each daemon, then a x1.25
     superset of 4 REGISTERs over 3 daemons, the first 3 answers LIST and
     START, the straggler is FREEd *)
  Alcotest.(check bool) "r_select is the shared report" true
    (o.Live.Ctl.r_select
    = { Deploy.sel_alive = 3; sel_dead = 0; sel_matched = 3; sel_rejected = [] });
  Alcotest.(check (list (pair string int)))
    "3 jobs, 4 registers, 3 lists, 3 starts, 1 free"
    [
      ("splayd.free", 1); ("splayd.job", 3); ("splayd.list", 3); ("splayd.register", 4);
      ("splayd.start", 3);
    ]
    o.Live.Ctl.r_calls;
  Alcotest.(check (list int)) "a heartbeat record per daemon" [ 0; 1; 2 ]
    (List.map fst o.Live.Ctl.r_heartbeats);
  List.iter
    (fun (host, n) ->
      Alcotest.(check bool) (Printf.sprintf "daemon %d heartbeat served" host) true (n >= 1))
    o.Live.Ctl.r_heartbeats;
  Alcotest.(check bool) "trace collected" true (o.Live.Ctl.r_trace_file <> None);
  (* the contract: live invariants match the simulated twin's *)
  let live = Live.Contract.summary_of_reports o.Live.Ctl.r_reports in
  let sim =
    match Live.Contract.run_sim ~seed:7 ~n:3 ~app:"chord" ~params:e2e_params () with
    | Ok r -> Live.Contract.summary_of_reports r
    | Error e -> Alcotest.fail ("sim twin failed: " ^ e)
  in
  Alcotest.(check (list string)) "zero contract violations" []
    (Live.Contract.diff ~sim ~live ());
  check_reaped "_live_e2e"

(* A job the daemons cannot run: each refuses [splayd.job] with an error
   naming the application, so none is a candidate and no REGISTER is
   sent, and the run fails with every daemon reaped. *)
let test_live_unknown_app () =
  Live.Live_apps.init ();
  let o =
    Live.Ctl.run { (e2e_cfg ~out_dir:"_live_e2e_unknown") with Live.Ctl.c_app = "no-such-app" }
  in
  Alcotest.(check bool) "run failed" false o.Live.Ctl.r_ok;
  Alcotest.(check bool) "a failure names the application" true
    (List.exists (fun f -> Support.contains f "no-such-app") o.Live.Ctl.r_failures);
  Alcotest.(check (list (pair string int))) "only the job was sent" [ ("splayd.job", 3) ]
    o.Live.Ctl.r_calls;
  check_reaped "_live_e2e_unknown"

let () =
  Alcotest.run "live"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "stream" `Quick test_wire_stream;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "garbage" `Quick test_wire_garbage;
          QCheck_alcotest.to_alcotest wire_torn_read_prop;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "rpc payload wire form" `Quick test_rpc_payload_roundtrip;
          Alcotest.test_case "typed rpc over the wire" `Quick test_typed_rpc_wire;
          Alcotest.test_case "control procedures over the wire" `Quick test_control_procs_wire;
          Alcotest.test_case "sandbox rss" `Quick test_sandbox_rss;
          Alcotest.test_case "rss sample" `Quick test_rss_sample;
        ] );
      ( "contract",
        [
          Alcotest.test_case "summary" `Quick test_contract_summary;
          Alcotest.test_case "diff" `Quick test_contract_diff;
          Alcotest.test_case "sim twin deterministic" `Quick test_contract_sim_deterministic;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "three daemons over loopback" `Quick test_live_e2e;
          Alcotest.test_case "unknown application" `Quick test_live_unknown_app;
        ] );
    ]
