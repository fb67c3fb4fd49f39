(* flood: a 100k-node one-way epidemic flood (fanout 6 over a random
   circulant peer graph, compact synthetic testbed) — exactly the input
   of the repository's scale bench, built step by step so set-up and the
   engine drive are timed apart.

   [Seq] runs it on one engine; [Par] runs the same inputs as one
   deployment over [parts] Fabric partitions on up to [domains] worker
   domains (flood's traced run uses it for the parallel engine's
   metrics). The rumour's delivery time at every node is read through a
   handler installed over the app's own (it calls the public
   [Epidemic.broadcast], which is the app's receive path), so the
   workload's simulated latency is the flood's per-node arrival time.

   The deployment (testbed, peer graph) comes from the scale bench's
   seed 11 whatever the run's seed; the run's seed picks the node the
   rumour starts at. Across seeds the flood is then the same experiment
   started elsewhere, and the spread measures the program rather than the
   graph lottery. *)

open Splay
module Epidemic = Splay_apps.Epidemic

let nodes = 100_000
let degree = 8
let config = { Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true }
let deployment_seed = 11

type mode = Seq | Par of { parts : int; domains : int }

type backend = Single of Engine.t * Net.t | Fab of Fabric.t * int (* domains *)

let engines = function
  | Single (e, _) -> [ ("engine", e) ]
  | Fab (f, _) -> List.init (Fabric.parts f) (fun i -> (Printf.sprintf "partition %d" i, Fabric.engine f i))

let net_counters = function
  | Single (_, n) -> (Net.messages_sent n, Net.bytes_sent n, Net.messages_dropped n)
  | Fab (f, _) -> (Fabric.messages_sent f, Fabric.bytes_sent f, Fabric.messages_dropped f)

(* Drive to quiescence: (events, windows, workers, max queue, virtual end). *)
let drive b =
  match b with
  | Single (e, _) ->
      let st = Engine.run e in
      (st.Engine.events_fired, 0, 1, st.Engine.max_queue_depth, st.Engine.final_clock)
  | Fab (f, domains) ->
      let info = Fabric.run ~domains f in
      let stats = List.map (fun (_, e) -> Engine.stats e) (engines b) in
      ( info.Par.events_fired,
        info.Par.windows,
        Dpool.effective (min domains (Fabric.parts f)),
        List.fold_left (fun a s -> max a s.Engine.max_queue_depth) 0 stats,
        List.fold_left (fun a s -> Float.max a s.Engine.final_clock) 0.0 stats )

let run ?(nodes = nodes) ~mode ~seed () =
  let origin = Rng.int (Rng.create seed) nodes in
  let root = Measure.open_ (match mode with Seq -> "flood" | Par _ -> "flood_par") in
  let parent = Measure.id root in
  let n = nodes in
  let (backend, graph_rng), testbed_s =
    Measure.host_span ~parent "setup.testbed" (fun () ->
        match mode with
        | Seq ->
            let eng = Engine.create ~seed:deployment_seed () in
            let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
            let net = Net.create eng tb in
            (Single (eng, net), Rng.split (Engine.rng eng))
        | Par { parts; domains } ->
            let fab = Fabric.create ~seed:deployment_seed ~hosts:n ~parts () in
            (Fab (fab, domains), Rng.split (Engine.rng (Fabric.engine fab 0))))
  in
  let net_of i = match backend with Single (_, net) -> net | Fab (f, _) -> Fabric.net_of_host f i in
  (* the peer graph: a fixed set of random ring strides shared by every
     node (a random circulant digraph) *)
  let (addrs, peers), overlay_s =
    Measure.host_span ~parent "setup.overlay" (fun () ->
        let addrs = Array.init n (fun i -> Addr.make i 9000) in
        let strides = Array.init degree (fun _ -> 1 + Rng.int graph_rng (max 1 (n - 1))) in
        (addrs, Array.init n (fun i -> Array.to_list (Array.map (fun s -> addrs.((i + s) mod n)) strides))))
  in
  let recv = Array.make n Float.nan in
  let (insts, envs), app_s =
    Measure.host_span ~parent "setup.app" (fun () ->
        let insts = Array.make n None in
        let envs =
          Array.init n (fun i ->
              let env = Env.create (net_of i) ~me:addrs.(i) ~nodes:peers.(i) in
              Epidemic.app ~config ~register:(fun x -> insts.(i) <- Some x) env;
              let node = Option.get insts.(i) in
              Rpc.add_handler env "epidemic.rumor" (fun args ->
                  (match args with
                  | [ Codec.String r ] ->
                      if not (Epidemic.has_received node r) then recv.(i) <- Env.now env;
                      Epidemic.broadcast node r
                  | _ -> failwith "epidemic.rumor: bad arguments");
                  Codec.Null);
              env)
        in
        (Array.map Option.get insts, envs))
  in
  let t_bcast = ref 0.0 in
  let (), preload_s =
    Measure.host_span ~parent "setup.preload" (fun () ->
        ignore
          (Env.thread envs.(origin) ~name:"rumor-origin" (fun () ->
               t_bcast := Env.now envs.(origin);
               Epidemic.broadcast insts.(origin) "r0")))
  in
  let setup_s = testbed_s +. overlay_s +. app_s +. preload_s in
  let m = Phase.start () in
  let (events, windows, workers, max_queue, virtual_s), _ =
    Measure.host_span ~parent (match mode with Seq -> "engine.run" | Par _ -> "fabric.run")
      (fun () -> drive backend)
  in
  let wall_s, gc_layers = Phase.stop m ~events in
  ignore (Measure.close root : float);
  let covered = Array.fold_left (fun a x -> if Epidemic.has_received x "r0" then a + 1 else a) 0 insts in
  let lat = ref [] in
  Array.iteri (fun i t -> if i <> origin && not (Float.is_nan t) then lat := (t -. !t_bcast) :: !lat) recv;
  let lat = Measure.sorted_of_list !lat in
  let msgs, bytes, dropped = net_counters backend in
  let calls = Array.fold_left (fun a e -> a + Rpc.calls_issued e) 0 envs in
  let fi = Float.of_int in
  let errors =
    Phase.crash_errors (engines backend)
    @ Phase.check
        (fi covered >= 0.999 *. fi n)
        (Printf.sprintf "flood reached %d of %d nodes (< 99.9%%)" covered n)
    @ Phase.check
        (Array.length lat = covered - 1)
        (Printf.sprintf "%d first deliveries recorded for %d nodes reached" (Array.length lat) covered)
  in
  {
    Phase.setup_s;
    wall_s;
    attempted = n;
    ok = covered;
    p50 = Measure.quantile_sorted lat 0.5;
    p99 = Measure.quantile_sorted lat 0.99;
    lat_n = Array.length lat;
    lat_kept = Array.length lat;
    errors;
    layers =
      [
        ("sim.max_queue", fi max_queue);
        ("sim.virtual_s", virtual_s);
        ("par.windows", fi windows);
        ("par.workers", fi workers);
        ("net.msgs", fi msgs);
        ("net.bytes", fi bytes);
        ("net.dropped", fi dropped);
        ("net.msgs_per_op", fi msgs /. fi n);
        ("rpc.calls", fi calls);
        ("rpc.calls_per_op", fi calls /. fi n);
        ("setup.testbed_s", testbed_s);
        ("setup.overlay_s", overlay_s);
        ("setup.app_s", app_s);
        ("setup.preload_s", preload_s);
      ]
      @ gc_layers;
  }
