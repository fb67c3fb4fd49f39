(* serve: a warm 10k-node Pastry with Dht_store on every node, loaded by
   the open-loop generator with a million virtual clients at the
   baseline knee (4000 req/s, Poisson x diurnal, Zipf s=1 over 1000
   keys, 90% gets), every serving optimisation on.

   [step] composes the public calls Harness.run makes for a sequential
   Dht step — Pastry.assemble, Dht_store.create / preload, Load.run,
   Engine.run — so set-up and the load phase are timed apart and the
   engine, net and envs stay reachable for counters. With [engine_seed]
   unset its [result] is Harness.run's for the same seed, field for
   field (the benchmark's test pins this through Harness.to_line). *)

open Splay
module H = Splay_serve.Harness
module L = Splay_serve.Load
module Node = Splay_apps.Node
module Pastry = Splay_apps.Pastry
module Dht_store = Splay_apps.Dht_store

let rate = 4_000.0

(* The overlay and testbed come from the repository serve bench's seed;
   a run's seed draws the arrival stream (Load.run's seed), so across
   seeds the deployment is the same and only the offered requests vary. *)
let deployment_seed = 42

let scenario =
  H.all_on
    {
      H.default with
      H.nodes = 10_000;
      gateways = 64;
      serve_cost = 0.002;
      load = { L.default with L.clients = 1_000_000; keys = 1_000; duration = 10.0; inflight = 64 };
    }

type step = {
  result : H.result;
  engine : Engine.t;
  net : Net.t;
  envs : Env.t array;
  stats : L.stats;
  events : int;
  max_queue : int;
  gets : int; (* operations issued through the wrapper, by kind *)
  puts : int;
  service_sum : float; (* summed virtual seconds inside get_r / put_r *)
  setup : (string * float) list; (* setup.*_s phase durations *)
  wall_s : float;
  gc_layers : (string * float) list;
}

let step ?(parent = 0) ?engine_seed (s : H.scenario) ~seed ~rate =
  if s.H.target <> H.Dht then invalid_arg "Serve.step: Dht target only";
  let n = s.H.nodes in
  let gws = min s.H.gateways n in
  let (eng, net), testbed_s =
    Measure.host_span ~parent "setup.testbed" (fun () ->
        let eng = Engine.create ~seed:(Option.value engine_seed ~default:seed) () in
        let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
        (eng, Net.create eng tb))
  in
  let pcfg = Pastry.default_config in
  let md = Misc.pow2 pcfg.Pastry.bits in
  let spacing = max 1 (md / n) in
  let (ring, envs, pastries), overlay_s =
    Measure.host_span ~parent "setup.overlay" (fun () ->
        let ring = Array.init n (fun i -> Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000)) in
        let envs = Array.init n (fun i -> Env.create net ~me:ring.(i).Node.addr) in
        let pastries = Array.make n None in
        for i = 0 to n - 1 do
          Pastry.assemble ~config:pcfg ~ring ~index:i
            ~register:(fun p -> pastries.(i) <- Some p)
            envs.(i)
        done;
        (ring, envs, Array.map Option.get pastries))
  in
  let token_rate =
    if s.H.token_rate > 0.0 then s.H.token_rate
    else if s.H.serve_cost > 0.0 then 0.9 /. s.H.serve_cost
    else Dht_store.default_config.Dht_store.token_rate
  in
  let cfg =
    {
      Dht_store.replicas = s.H.replicas;
      republish_interval = 0.0;
      entry_ttl = Float.max_float;
      rpc_timeout = 1e6;
      serve_cost = s.H.serve_cost;
      batching = s.H.batching;
      p2c = s.H.p2c;
      admission = s.H.admission;
      token_rate;
      token_burst = s.H.token_burst;
      slo_budget = s.H.slo_budget;
    }
  in
  let stores, app_s = Measure.host_span ~parent "setup.app" (fun () -> Array.map (Dht_store.create ~config:cfg) pastries) in
  (* warm start: each replica placed at its owner straight from the
     shared membership, as the harness does *)
  let (), preload_s =
    Measure.host_span ~parent "setup.preload" (fun () ->
        let value = String.make s.H.load.L.value_size 'v' in
        let dist a b =
          let cw = (b - a + md) mod md in
          min cw (md - cw)
        in
        let owner rid =
          let j = min (rid / spacing) (n - 1) in
          let k = (j + 1) mod n in
          if dist ring.(j).Node.id rid <= dist ring.(k).Node.id rid then j else k
        in
        for kk = 1 to s.H.load.L.keys do
          let key = "k" ^ Int.to_string kk in
          for i = 0 to s.H.replicas - 1 do
            Dht_store.preload stores.(owner (Dht_store.replica_id stores.(0) ~key i)) ~key ~value
          done
        done)
  in
  let gets = ref 0 and puts = ref 0 and service_sum = ref 0.0 in
  (* the harness's issue path, with a virtual-time span around each call *)
  let issue g op =
    let t0 = Env.now envs.(g) in
    let name, res =
      match op with
      | L.Get key -> (
          incr gets;
          ( "dht.get",
            match Dht_store.get_r stores.(g) ~key with
            | `Value _ -> `Ok
            | `Miss -> `Miss
            | `Shed -> `Shed ))
      | L.Put (key, v) -> (
          incr puts;
          ( "dht.put",
            match Dht_store.put_r stores.(g) ~key ~value:v with
            | acks, _ when acks > 0 -> `Ok
            | _, sheds when sheds > 0 -> `Shed
            | _ -> `Failed ))
    in
    let t1 = Env.now envs.(g) in
    service_sum := !service_sum +. (t1 -. t0);
    Measure.op_span ~parent name ~start:t0 ~stop:t1;
    res
  in
  (* the generator is the client side of the app: its install counts as
     app set-up *)
  let stats, load_s =
    Measure.host_span ~parent "setup.load" (fun () ->
        L.run { s.H.load with L.rate } ~seed ~part:0 ~parts:1 ~gateways:(Array.sub envs 0 gws) ~issue)
  in
  let app_s = app_s +. load_s in
  let m = Phase.start () in
  let st, _ = Measure.host_span ~parent "engine.run" (fun () -> Engine.run eng) in
  let wall_s, gc_layers = Phase.stop m ~events:st.Engine.events_fired in
  let lat = stats.L.lat in
  let lat_n = Sink.count lat in
  (* the harness's single-partition aggregation, operation for operation *)
  let q qq =
    if lat_n = 0 then 0.0
    else
      (0.0 +. if Sink.is_empty lat then 0.0 else Float.of_int (Sink.count lat) *. Sink.quantile lat qq)
      /. Float.of_int lat_n
  in
  let sum f = Array.fold_left (fun a st -> a + f st) 0 stores in
  let result =
    {
      H.r_rate = rate;
      offered = stats.L.offered;
      ok = stats.L.ok;
      misses = stats.L.misses;
      shed = stats.L.shed;
      failed = stats.L.failed;
      p50 = q 0.5;
      p99 = q 0.99;
      p999 = q 0.999;
      mean_lat =
        (if lat_n = 0 then 0.0 else (0.0 +. (Float.of_int lat_n *. Sink.mean lat)) /. Float.of_int lat_n);
      served = sum Dht_store.served_count;
      server_shed = sum Dht_store.shed_count;
      batched = sum Dht_store.batched_count;
      origin = 0;
      stale = 0;
      client_words = Float.of_int stats.L.setup_words /. Float.of_int (max 1 s.H.load.L.clients);
      windows = 0;
      workers = 1;
    }
  in
  {
    result;
    engine = eng;
    net;
    envs;
    stats;
    events = st.Engine.events_fired;
    max_queue = st.Engine.max_queue_depth;
    gets = !gets;
    puts = !puts;
    service_sum = !service_sum;
    setup =
      [
        ("setup.testbed_s", testbed_s);
        ("setup.overlay_s", overlay_s);
        ("setup.app_s", app_s);
        ("setup.preload_s", preload_s);
      ];
    wall_s;
    gc_layers;
  }

let run ~seed =
  let root = Measure.open_ "serve" in
  let parent = Measure.id root in
  let s = step ~parent ~engine_seed:deployment_seed scenario ~seed ~rate in
  ignore (Measure.close root : float);
  let r = s.result in
  let fi = Float.of_int in
  let offered = r.H.offered in
  let per_op x = fi x /. fi (max 1 offered) in
  let calls = Array.fold_left (fun a e -> a + Rpc.calls_issued e) 0 s.envs in
  let kept = Dist.count (Sink.to_dist s.stats.L.lat) in
  let lat_n = Sink.count s.stats.L.lat in
  let errors =
    Phase.crash_errors [ ("engine", s.engine) ]
    @ Phase.check
        (r.H.ok + r.H.misses + r.H.shed + r.H.failed = offered)
        (Printf.sprintf "outcomes ok+miss+shed+failed = %d, offered %d"
           (r.H.ok + r.H.misses + r.H.shed + r.H.failed)
           offered)
    @ Phase.check (r.H.misses = 0) (Printf.sprintf "%d misses on preloaded keys" r.H.misses)
    @ Phase.check (s.gets + s.puts = offered)
        (Printf.sprintf "%d operations reached the store, offered %d" (s.gets + s.puts) offered)
    @ Phase.check (offered > 0 && lat_n = offered) "every request has a latency sample"
  in
  let msgs = Net.messages_sent s.net in
  let traced =
    if not !Measure.tracing then []
    else
      let get = Measure.durations "dht.get" and put = Measure.durations "dht.put" in
      [
        ("dht.get_p50_s", Measure.quantile get 0.5);
        ("dht.get_p99_s", Measure.quantile get 0.99);
        ("dht.put_p99_s", Measure.quantile put 0.99);
      ]
  in
  {
    Phase.setup_s = List.fold_left (fun a (_, d) -> a +. d) 0.0 s.setup;
    wall_s = s.wall_s;
    attempted = offered;
    ok = r.H.ok;
    p50 = r.H.p50;
    p99 = r.H.p99;
    lat_n;
    lat_kept = kept;
    errors;
    layers =
      [
        ("sim.max_queue", fi s.max_queue);
        ("sim.virtual_s", Engine.now s.engine);
        ("par.windows", 0.0);
        ("par.workers", 1.0);
        ("net.msgs", fi msgs);
        ("net.bytes", fi (Net.bytes_sent s.net));
        ("net.dropped", fi (Net.messages_dropped s.net));
        ("net.msgs_per_op", per_op msgs);
        ("rpc.calls", fi calls);
        ("rpc.calls_per_op", per_op calls);
        ("dht.served_per_op", per_op r.H.served);
        ("dht.batched_frac", fi r.H.batched /. fi (max 1 s.gets));
        ("dht.server_shed", fi r.H.server_shed);
        ("load.offered", fi offered);
        ("load.client_words", r.H.client_words);
        ("load.wait_mean_s", r.H.mean_lat -. (s.service_sum /. fi (max 1 (s.gets + s.puts))));
        ("stats.samples_kept", fi kept);
        ("stats.samples_kept_frac", fi kept /. fi (max 1 lat_n));
      ]
      @ traced @ s.setup @ s.gc_layers;
  }
