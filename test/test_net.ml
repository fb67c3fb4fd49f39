(* Tests for the network substrate: transit-stub topology, testbed host
   models, packet transport with bandwidth queues. *)

open Splay_sim
open Splay_net

type Net.payload += Probe of int

let latency_delay l a b =
  let cell = { Eheap.v = 0.0 } in
  Latency.delay_to l cell a b;
  cell.Eheap.v

let topology_delay topo a b =
  let cell = { Eheap.v = 0.0 } in
  Topology.delay_to topo cell a b;
  cell.Eheap.v

(* {2 Topology} *)

let test_topology_shape () =
  let rng = Rng.create 1 in
  let topo = Topology.transit_stub rng in
  Alcotest.(check int) "500 routers by default" 500 (Topology.router_count topo);
  Alcotest.(check int) "490 stubs" 490 (Array.length (Topology.stub_routers topo))

let test_topology_delays () =
  let rng = Rng.create 2 in
  let topo = Topology.transit_stub ~transits:4 ~stubs_per_transit:3 rng in
  let stubs = Topology.stub_routers topo in
  (* matrix access goes through the Latency signature; routers play the
     host ids directly *)
  let lat = Latency.matrix topo ~stub_of:Fun.id in
  (* same stub: intra-stub delay *)
  Alcotest.(check (float 1e-9)) "intra-stub" (Topology.intra_stub_delay topo)
    (latency_delay lat stubs.(0) stubs.(0));
  (* sibling stubs under the same transit: 2 x stub-transit one-way = 30 ms *)
  Alcotest.(check (float 1e-9)) "stub-stub same domain" 0.030
    (latency_delay lat stubs.(0) stubs.(1));
  (* delays are symmetric and satisfy the triangle inequality on a sample *)
  let d a b = latency_delay lat a b in
  Array.iter
    (fun s1 ->
      Array.iter
        (fun s2 ->
          Alcotest.(check (float 1e-9)) "symmetric" (d s1 s2) (d s2 s1);
          Array.iter
            (fun s3 ->
              Alcotest.(check bool) "triangle" true (d s1 s3 <= d s1 s2 +. d s2 s3 +. 1e-9))
            stubs)
        stubs)
    stubs

let test_topology_long_paths_cost_more () =
  let rng = Rng.create 3 in
  let topo = Topology.transit_stub rng in
  let stubs = Topology.stub_routers topo in
  let lat = Latency.matrix topo ~stub_of:Fun.id in
  (* crossing transits costs at least stub-transit + transit-transit hops *)
  let same = latency_delay lat stubs.(0) stubs.(1) in
  (* find a pair on different transits: delays differ from the local one *)
  let far =
    Array.fold_left
      (fun acc s -> Float.max acc (latency_delay lat stubs.(0) s))
      0.0 stubs
  in
  Alcotest.(check bool) "remote stubs cost more than local" true (far > same)

(* {2 Testbed} *)

let test_testbed_kinds () =
  let rng = Rng.create 4 in
  let pl = Testbed.planetlab ~n:10 rng in
  Alcotest.(check int) "pl size" 10 (Testbed.size pl);
  let mn = Testbed.modelnet ~hosts:20 rng in
  Alcotest.(check int) "mn size" 20 (Testbed.size mn);
  let cl = Testbed.cluster rng in
  Alcotest.(check int) "default cluster is the paper's 11 nodes" 11 (Testbed.size cl);
  let mixed = Testbed.mixed ~planetlab:5 ~modelnet:5 rng in
  Alcotest.(check int) "mixed size" 10 (Testbed.size mixed);
  Alcotest.(check bool) "mixed kinds" true
    ((Testbed.host mixed 0).Testbed.kind = Testbed.Planetlab
    && (Testbed.host mixed 9).Testbed.kind = Testbed.Modelnet)

let test_testbed_latency_ordering () =
  let rng = Rng.create 5 in
  let cl = Testbed.cluster rng in
  let pl = Testbed.planetlab ~n:10 rng in
  Alcotest.(check bool) "LAN is sub-millisecond" true (Testbed.base_delay cl 0 1 < 0.001);
  Alcotest.(check bool) "WAN is milliseconds" true (Testbed.base_delay pl 0 1 > 0.002);
  (* base delay is stable, the jittered delay varies around it *)
  Alcotest.(check (float 1e-12)) "base stable" (Testbed.base_delay pl 0 1)
    (Testbed.base_delay pl 0 1);
  (* each send crosses idle links, so its delay varies only by jitter *)
  let eng = Engine.create ~seed:5 () in
  let net = Net.create eng (Testbed.planetlab ~n:2 (Engine.rng eng)) in
  let got = ref 0.0 in
  Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> got := Engine.now eng);
  let delay () =
    let t0 = Engine.now eng in
    Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 1);
    ignore (Engine.run eng);
    !got -. t0
  in
  let jittered = List.init 20 (fun _ -> delay ()) in
  Alcotest.(check bool) "jitter varies" true
    (List.exists (fun d -> not (Float.equal d (List.hd jittered))) jittered)

let test_testbed_extra_host () =
  let rng = Rng.create 6 in
  let tb, ctl = Testbed.with_extra_host (Testbed.planetlab ~n:5 rng) in
  Alcotest.(check int) "appended last" 5 ctl;
  Alcotest.(check int) "size grew" 6 (Testbed.size tb);
  Alcotest.(check bool) "controller host is LAN-class" true
    ((Testbed.host tb ctl).Testbed.kind = Testbed.Cluster)

let test_service_delay_positive () =
  let rng = Rng.create 7 in
  let pl = Testbed.planetlab ~n:5 rng in
  for h = 0 to 4 do
    for _ = 1 to 20 do
      Alcotest.(check bool) "service delay >= 0" true (Testbed.service_delay pl h >= 0.0)
    done
  done

(* {2 Net} *)

let with_net ?(n = 4) kind f =
  let eng = Engine.create ~seed:8 () in
  let tb =
    match kind with
    | `Cluster -> Testbed.cluster ~n (Engine.rng eng)
    | `Modelnet bw -> Testbed.modelnet ~hosts:n ~bandwidth:bw (Engine.rng eng)
  in
  let net = Net.create eng tb in
  f eng net

let test_net_delivery () =
  with_net `Cluster (fun eng net ->
      let got = ref [] in
      Net.bind net (Addr.make 1 9) (fun ~src payload ->
          match payload with
          | Probe k -> got := (src.Addr.host, k, Engine.now eng) :: !got
          | _ -> ());
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 7);
      ignore (Engine.run eng);
      match !got with
      | [ (0, 7, t) ] -> Alcotest.(check bool) "delivered after positive delay" true (t > 0.0)
      | _ -> Alcotest.fail "expected exactly one delivery")

(* Testbeds of every kind, of [n] hosts. *)
let testbeds =
  [
    ("synthetic", fun n rng -> Testbed.synthetic ~hosts:n rng);
    ("planetlab", fun n rng -> Testbed.planetlab ~n rng);
    ("modelnet", fun hosts rng -> Testbed.modelnet ~hosts rng);
    ("cluster", fun n rng -> Testbed.cluster ~n rng);
  ]

(* What a send allocates: nothing per message, on every testbed. It waits
   as a slot id in the engine's message queue, its fields in the net's
   columns; the clock, the propagation delay (jitter included) and the
   due time travel through flat cells and the link state is unboxed
   columns, so no float is boxed on the way. The first batch is a
   warm-up; the drained queue and columns hold no page afterwards, so
   what the measured second batch counts is their first few doublings,
   small enough to be minor-heap blocks (the pages past them are major). *)
let test_net_send_minor_words (kind, make) () =
  let eng = Engine.create ~seed:3 () in
  let net = Net.create eng (make 2 (Engine.rng eng)) in
  let src = Addr.make 0 1 and dst = Addr.make 1 1 and msg = Probe 1 in
  let n = 10_000 in
  let batch () =
    for _ = 1 to n do
      Net.send net ~src ~dst msg
    done
  in
  batch ();
  ignore (Engine.run eng);
  let w0 = Gc.minor_words () in
  batch ();
  let per_send = (Gc.minor_words () -. w0) /. Float.of_int n in
  Alcotest.(check int) "all queued" n (Engine.pending_events eng);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per %s send (bound 1)" per_send kind)
    true (per_send <= 1.0)

(* A burst over several pages: the slot columns and the engine's message
   queue grow by pages, and once everything is delivered the net holds no
   column and the queue no page, so what the net reaches is back to what
   it reached before the burst. A second burst grows them again. *)
let test_net_burst_pages () =
  let eng = Engine.create ~seed:3 () in
  let tb = Testbed.synthetic ~hosts:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let src = Addr.make 0 1 and dst = Addr.make 1 1 in
  let got = ref 0 in
  Net.bind net dst (fun ~src:_ -> function Probe k -> got := !got + k | _ -> ());
  let words () = Obj.reachable_words (Obj.repr net) in
  let base = words () in
  let n = (3 * Pages.size) + 100 in
  for round = 1 to 2 do
    for _ = 1 to n do
      Net.send net ~src ~dst (Probe 1)
    done;
    Alcotest.(check int) "all in flight" n (Engine.pending_events eng);
    Alcotest.(check bool) "the burst holds pages" true (words () > base + (3 * Pages.size));
    ignore (Engine.run eng);
    Alcotest.(check int) "all delivered" (round * n) !got;
    Alcotest.(check int) "no column, no page" base (words ())
  done

(* A send routed through [set_remote] and completed by [deliver_remote]
   is delivered at the instant a local send is: two same-seed nets, one
   routing every message to host 1 out and back in through an event at
   its arrival time. Each round sends from host 0 to hosts 1 and 2 at
   once, so the second message waits in the shared uplink, and runs to
   completion before the next. *)
let test_net_remote_same_instant (_, make) () =
  let deliveries ~routed =
    let eng = Engine.create ~seed:9 () in
    let net = Net.create eng (make 3 (Engine.rng eng)) in
    if routed then
      Net.set_remote net
        ~local:(fun h -> h <> 1)
        ~route:(fun ~src ~dst ~size ~arrival ~up_wait ~ctx payload ->
          ignore
            (Engine.schedule_at eng ~at:{ Engine.v = arrival } (fun () ->
                 Net.deliver_remote net ~size ~src ~dst ~up_wait ~ctx payload)));
    let got = ref [] in
    List.iter
      (fun h ->
        Net.bind net (Addr.make h 9) (fun ~src:_ payload ->
            match payload with Probe k -> got := (h, k, Engine.now eng) :: !got | _ -> ()))
      [ 1; 2 ];
    for k = 1 to 8 do
      Net.send net ~size:(k * 4_000) ~src:(Addr.make 0 1) ~dst:(Addr.make 2 9) (Probe k);
      Net.send net ~size:(k * 1_000) ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe k);
      ignore (Engine.run eng)
    done;
    List.rev !got
  in
  let local = deliveries ~routed:false and routed = deliveries ~routed:true in
  Alcotest.(check int) "all delivered" 16 (List.length local);
  List.iter2
    (fun (h, k, t) (h', k', t') ->
      Alcotest.(check (pair int int)) "same message" (h, k) (h', k');
      Alcotest.(check (float 0.0)) "same instant" t t')
    local routed

let test_net_unbound_drops () =
  with_net `Cluster (fun eng net ->
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 1);
      ignore (Engine.run eng);
      Alcotest.(check int) "dropped" 1 (Net.messages_dropped net);
      Alcotest.(check int) "sent counter" 1 (Net.messages_sent net))

let test_net_down_host () =
  with_net `Cluster (fun eng net ->
      let got = ref 0 in
      Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> incr got);
      Testbed.set_host_up (Net.testbed net) 1 false;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 1);
      ignore (Engine.run eng);
      Alcotest.(check int) "nothing delivered to a dead host" 0 !got;
      Testbed.set_host_up (Net.testbed net) 1 true;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 2);
      ignore (Engine.run eng);
      Alcotest.(check int) "delivered after restart" 1 !got;
      (* sender down: silently dropped too *)
      Testbed.set_host_up (Net.testbed net) 0 false;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 3);
      ignore (Engine.run eng);
      Alcotest.(check int) "dead sender drops" 1 !got)

let test_net_loss () =
  with_net `Cluster (fun eng net ->
      let got = ref 0 in
      Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> incr got);
      Net.set_loss net 0.5;
      for _ = 1 to 200 do
        Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 0)
      done;
      ignore (Engine.run eng);
      Alcotest.(check bool)
        (Printf.sprintf "roughly half delivered (%d/200)" !got)
        true
        (!got > 60 && !got < 140);
      (* per-message override beats the global setting *)
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) ~loss:0.0 (Probe 1);
      let before = !got in
      ignore (Engine.run eng);
      Alcotest.(check int) "loss:0 always delivers" (before + 1) !got)

let test_net_bandwidth_serializes () =
  (* two 1 MB messages on a 1 Mbps link: store-and-forward pays the
     transmission twice (uplink then downlink), so the first arrives ~16 s
     in; the second is serialized ~8 s behind it *)
  let mbps = 1_000_000.0 /. 8.0 in
  with_net (`Modelnet mbps) (fun eng net ->
      let arrivals = ref [] in
      Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> arrivals := Engine.now eng :: !arrivals);
      let size = 1_000_000 in
      Net.send net ~size ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 1);
      Net.send net ~size ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 2);
      ignore (Engine.run eng);
      match List.rev !arrivals with
      | [ t1; t2 ] ->
          Alcotest.(check bool) "first takes ~16s" true (t1 > 15.9 && t1 < 18.0);
          Alcotest.(check bool) "second serialized behind it" true (t2 -. t1 > 7.0)
      | _ -> Alcotest.fail "expected two arrivals")

let test_net_partition () =
  with_net ~n:4 `Cluster (fun eng net ->
      let got = ref 0 in
      Net.bind net (Addr.make 2 9) (fun ~src:_ _ -> incr got);
      Net.set_partition net (fun h -> if h < 2 then 0 else 1);
      Alcotest.(check bool) "cross blocked" true (Net.partitioned net 0 2);
      Alcotest.(check bool) "same side open" false (Net.partitioned net 2 3);
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 2 9) (Probe 1);
      Net.send net ~src:(Addr.make 3 1) ~dst:(Addr.make 2 9) (Probe 2);
      ignore (Engine.run eng);
      Alcotest.(check int) "only the same-side message arrived" 1 !got;
      Net.clear_partition net;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 2 9) (Probe 3);
      ignore (Engine.run eng);
      Alcotest.(check int) "healed" 2 !got)

let test_net_bind_conflicts () =
  with_net `Cluster (fun _ net ->
      Net.bind net (Addr.make 0 5) (fun ~src:_ _ -> ());
      Alcotest.check_raises "double bind" (Invalid_argument "Net.bind: 0:5 already bound")
        (fun () -> Net.bind net (Addr.make 0 5) (fun ~src:_ _ -> ()));
      Net.unbind net (Addr.make 0 5);
      Net.bind net (Addr.make 0 5) (fun ~src:_ _ -> ());
      Alcotest.(check bool) "rebound" true (Net.is_bound net (Addr.make 0 5)))

(* An engine's message queue has one consumer: a second net on the same
   engine would receive the first one's slot ids. *)
let test_net_one_per_engine () =
  with_net `Cluster (fun eng net ->
      Alcotest.check_raises "second net"
        (Invalid_argument "Engine.set_consumer: the engine already has a message consumer")
        (fun () -> ignore (Net.create eng (Net.testbed net))))

let test_net_rtt_estimate () =
  with_net `Cluster (fun _ net ->
      Alcotest.(check bool) "rtt positive" true (Net.base_rtt net 0 1 > 0.0);
      Alcotest.(check (float 1e-12)) "rtt symmetric" (Net.base_rtt net 0 1) (Net.base_rtt net 1 0))

(* {2 Latency} *)

let prop_latency_symmetric_deterministic =
  QCheck.Test.make ~name:"synthetic latency is symmetric and seed-deterministic" ~count:500
    QCheck.(triple (int_bound 10_000) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, a, b) ->
      let l1 = Latency.synthetic ~seed () in
      let l2 = Latency.synthetic ~seed () in
      let d = latency_delay l1 a b in
      d >= 0.0
      && Float.equal d (latency_delay l1 b a)
      && Float.equal d (latency_delay l2 a b))

let prop_latency_uniform_range =
  QCheck.Test.make ~name:"uniform RTT maps every pair into [lo/2, hi/2)" ~count:500
    QCheck.(pair (int_bound 10_000) (int_bound 1_000_000))
    (fun (seed, a) ->
      let lo = 0.02 and hi = 0.2 in
      let l = Latency.synthetic ~dist:(Latency.Uniform { lo; hi }) ~seed () in
      let d = latency_delay l a (a + 1) in
      d >= lo /. 2.0 && d < hi /. 2.0)

let test_latency_uniform_mean () =
  (* hash draws are uniform: the sample mean over many pairs must sit
     near the distribution mean, (lo+hi)/2 RTT = (lo+hi)/4 one-way *)
  let lo = 0.02 and hi = 0.2 in
  let l = Latency.synthetic ~dist:(Latency.Uniform { lo; hi }) ~seed:42 () in
  let n = 20_000 in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. latency_delay l i (i + 1_000_000)
  done;
  let mean = !sum /. Float.of_int n in
  let expect = (lo +. hi) /. 4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f within 5%% of %.4f" mean expect)
    true
    (Float.abs (mean -. expect) < 0.05 *. expect)

let test_latency_constant_and_intra () =
  let l = Latency.synthetic ~dist:(Latency.Constant 0.08) ~intra_host:1e-4 ~seed:9 () in
  Alcotest.(check (float 1e-12)) "every pair at RTT/2" 0.04 (latency_delay l 3 900_000);
  Alcotest.(check (float 1e-12)) "self at intra_host" 1e-4 (latency_delay l 5 5)

let test_latency_classes_weights () =
  (* a 50/50 two-class mixture: observed class fractions near the weights *)
  let l =
    Latency.synthetic
      ~dist:(Latency.Classes [| (0.5, 0.02); (0.5, 0.1) |])
      ~seed:17 ()
  in
  let n = 10_000 in
  let fast = ref 0 in
  for i = 0 to n - 1 do
    if latency_delay l i (i + 500_000) < 0.03 then incr fast
  done;
  let frac = Float.of_int !fast /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "fast-class fraction %.3f near 0.5" frac)
    true
    (Float.abs (frac -. 0.5) < 0.05)

let test_latency_matrix_equals_topology () =
  let rng = Rng.create 21 in
  let topo = Topology.transit_stub ~transits:4 ~stubs_per_transit:3 rng in
  let stubs = Topology.stub_routers topo in
  let lat = Latency.matrix topo ~stub_of:Fun.id in
  Array.iter
    (fun s1 ->
      Array.iter
        (fun s2 ->
          Alcotest.(check (float 0.0))
            "matrix backend byte-identical to direct access"
            (topology_delay topo s1 s2) (latency_delay lat s1 s2))
        stubs)
    stubs

let test_testbed_synthetic_end_to_end () =
  (* the compact backend drives a real delivery: hash-seeded delays in,
     message out, and base_delay answers stay stable and symmetric *)
  let eng = Engine.create ~seed:33 () in
  let tb = Testbed.synthetic ~hosts:100_000 (Engine.rng eng) in
  Alcotest.(check int) "size" 100_000 (Testbed.size tb);
  Alcotest.(check (float 1e-12)) "base delay stable"
    (Testbed.base_delay tb 0 99_999) (Testbed.base_delay tb 0 99_999);
  Alcotest.(check (float 1e-12)) "base delay symmetric"
    (Testbed.base_delay tb 0 99_999) (Testbed.base_delay tb 99_999 0);
  let net = Net.create eng tb in
  let got = ref [] in
  Net.bind net (Addr.make 99_999 9) (fun ~src payload ->
      match payload with
      | Probe k -> got := (src.Addr.host, k, Engine.now eng) :: !got
      | _ -> ());
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 99_999 9) (Probe 5);
  ignore (Engine.run eng);
  match !got with
  | [ (0, 5, t) ] -> Alcotest.(check bool) "delivered after positive delay" true (t > 0.0)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_latency_of_fn () =
  (* wrap replayed measurement data: the model answers exactly what the
     function says and carries the given identity *)
  let grid a b = 0.001 *. Float.of_int (abs (a - b) mod 50) in
  let l = Latency.of_fn ~name:"grid" ~seed:5 grid in
  Alcotest.(check string) "name" "grid" (Latency.name l);
  Alcotest.(check int) "seed" 5 (Latency.seed l);
  for i = 0 to 100 do
    let a = i * 37 and b = i * 91 in
    Alcotest.(check (float 0.0)) "delay is the function's answer" (grid a b)
      (latency_delay l a b)
  done;
  let l0 = Latency.of_fn ~name:"flat" (fun _ _ -> 0.01) in
  Alcotest.(check int) "seed defaults to 0" 0 (Latency.seed l0);
  (* an of_fn model drives a synthetic testbed like any other backend *)
  let eng = Engine.create ~seed:41 () in
  let tb = Testbed.synthetic ~latency:l ~hosts:1_000 (Engine.rng eng) in
  Alcotest.(check (float 1e-12)) "testbed answers through the fn" (grid 3 903)
    (Testbed.base_delay tb 3 903)

let test_synthetic_down_up_at_scale () =
  (* host down/up on the compact struct-of-arrays testbed, at a size where
     per-host records would be prohibitive: sends to (or from) a down host
     drop silently, restart resumes delivery, and the one-bit state never
     materialises host records *)
  let n = 50_000 in
  let eng = Engine.create ~seed:34 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let last = n - 1 in
  let got = ref 0 in
  Net.bind net (Addr.make last 9) (fun ~src:_ _ -> incr got);
  Testbed.set_host_up tb last false;
  Alcotest.(check bool) "down visible through the testbed" false (Testbed.host_up tb last);
  Alcotest.(check bool) "down visible through the net" false (Net.host_up net last);
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make last 9) (Probe 1);
  ignore (Engine.run eng);
  Alcotest.(check int) "nothing delivered while down" 0 !got;
  Testbed.set_host_up (Net.testbed net) last true;
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make last 9) (Probe 2);
  ignore (Engine.run eng);
  Alcotest.(check int) "delivery resumes after restart" 1 !got;
  (* a down *sender* drops too *)
  Testbed.set_host_up (Net.testbed net) 0 false;
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make last 9) (Probe 3);
  ignore (Engine.run eng);
  Alcotest.(check int) "dead sender drops" 1 !got;
  Testbed.set_host_up (Net.testbed net) 0 true;
  (* independence: downing one host leaves a spot-check of others up *)
  Testbed.set_host_up tb 777 false;
  List.iter
    (fun h -> Alcotest.(check bool) "other hosts unaffected" true (Testbed.host_up tb h))
    [ 0; 776; 778; last ];
  Testbed.set_host_up tb 777 true;
  (* still no per-host records behind any of this *)
  match Testbed.host tb 777 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "synthetic testbed unexpectedly materialised host records"

(* {2 Addresses} *)

(* [Addr.to_string] writes its digits itself: it must render exactly as
   the format interpreter does, for every width, both signs and the
   extremes ([Pastry]'s empty slot has host -1). *)
let prop_addr_to_string =
  let edges = [ 0; 1; 9; 10; 11; 99; 100; 65_535; -1; -9; -10; max_int; min_int; max_int - 1 ] in
  let any_width =
    QCheck.Gen.(
      let* k = int_bound 62 and* m = int and* neg = bool in
      let v = m land ((1 lsl k) - 1) in
      return (if neg then -v else v))
  in
  let part = QCheck.Gen.oneof [ QCheck.Gen.oneofl edges; any_width ] in
  QCheck.Test.make ~name:"Addr.to_string = sprintf \"%d:%d\"" ~count:2000
    (QCheck.make
       ~print:(fun (h, p) -> Printf.sprintf "host %d, port %d" h p)
       (QCheck.Gen.pair part part))
    (fun (h, p) -> Addr.to_string (Addr.make h p) = Printf.sprintf "%d:%d" h p)

let addr_qsuite = List.map QCheck_alcotest.to_alcotest [ prop_addr_to_string ]

let latency_qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_latency_symmetric_deterministic; prop_latency_uniform_range ]

let () =
  Alcotest.run "splay_net"
    [
      ( "topology",
        [
          Alcotest.test_case "shape" `Quick test_topology_shape;
          Alcotest.test_case "delays" `Quick test_topology_delays;
          Alcotest.test_case "long paths" `Quick test_topology_long_paths_cost_more;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "kinds" `Quick test_testbed_kinds;
          Alcotest.test_case "latency ordering" `Quick test_testbed_latency_ordering;
          Alcotest.test_case "extra host" `Quick test_testbed_extra_host;
          Alcotest.test_case "service delay" `Quick test_service_delay_positive;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
        ]
        @ List.concat_map
            (fun ((kind, _) as tb) ->
              [
                (* the synthetic case is the original, unsuffixed pin *)
                Alcotest.test_case
                  (if kind = "synthetic" then "send minor words" else "send minor words, " ^ kind)
                  `Quick (test_net_send_minor_words tb);
                Alcotest.test_case ("routed send lands with a local one, " ^ kind) `Quick
                  (test_net_remote_same_instant tb);
              ])
            testbeds
        @ [
          Alcotest.test_case "burst over pages" `Quick test_net_burst_pages;
          Alcotest.test_case "unbound drops" `Quick test_net_unbound_drops;
          Alcotest.test_case "down host" `Quick test_net_down_host;
          Alcotest.test_case "loss" `Quick test_net_loss;
          Alcotest.test_case "bandwidth serializes" `Quick test_net_bandwidth_serializes;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "bind conflicts" `Quick test_net_bind_conflicts;
          Alcotest.test_case "one net per engine" `Quick test_net_one_per_engine;
          Alcotest.test_case "rtt estimate" `Quick test_net_rtt_estimate;
        ] );
      ( "latency",
        [
          Alcotest.test_case "uniform mean" `Quick test_latency_uniform_mean;
          Alcotest.test_case "constant and intra-host" `Quick test_latency_constant_and_intra;
          Alcotest.test_case "class weights" `Quick test_latency_classes_weights;
          Alcotest.test_case "matrix = topology" `Quick test_latency_matrix_equals_topology;
          Alcotest.test_case "of_fn" `Quick test_latency_of_fn;
          Alcotest.test_case "synthetic testbed end to end" `Quick
            test_testbed_synthetic_end_to_end;
          Alcotest.test_case "synthetic down/up at scale" `Quick test_synthetic_down_up_at_scale;
        ]
        @ latency_qsuite );
      ("addr", addr_qsuite);
    ]
