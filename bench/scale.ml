(* Scale curve: how large can ONE simulated deployment grow on one core?

   Two workloads, each as a single run (no controller, no daemons — the
   instances talk straight through the network model):

   - epidemic_N: an N-node one-way gossip flood over a random circulant
     peer graph. One rumor injected at node 0; the run ends when the
     flood has burnt out. Throughput is delivered messages per wall
     second; coverage is the fraction of nodes reached.
   - chord_N: an N-node Chord ring warm-started with Chord.assemble
     (converged fingers, no join traffic, no stabilizers), then random
     lookups from a pool of driver fibers. Throughput is completed
     lookups per wall second; hop counts and latencies are counted in a
     Sink.sketch (the metrics plane's log-bucket table), as a
     million-sample exact collector would defeat the point.

   Every run uses the compact testbed (Testbed.synthetic): hash-seeded
   O(1) latency, struct-of-arrays per-host state, no host records. The
   rows land in BENCH_scale.json; the 10k rows carry CI floors
   (ops/sec) and ceilings (resident words per node) from
   BENCH_scale.floors.json, so a memory regression that would push the
   million-node run out of budget trips the smoke test long before
   anyone runs a million nodes. Resident words are an
   [Obj.reachable_words] delta over the deployment: measuring a
   footprint never forces a collection. *)

open Splay
module Apps = Splay_apps

(* Metrics-plane variants ([_obs] rows): the same single runs with
   windowed rollups and per-host telemetry sampling enabled. The paired
   rows put a number on the metrics overhead at scale — wall clock and
   resident words against the plain twin — which is exactly what the
   floors file guards. *)
let h_link_wait = Obs.histogram "net.link_wait"
let h_lookup = Obs.histogram "chord.lookup_s"

let with_metrics ~obs f =
  if not obs then f ()
  else begin
    let saved = !Obs.metrics_enabled in
    Obs.metrics_enabled := true;
    Obs.Rollup.clear ();
    Fun.protect ~finally:(fun () -> Obs.metrics_enabled := saved) f
  end

(* ---------- epidemic flood ---------- *)

(* The flood's deployment: n one-way epidemic instances over a random
   circulant peer graph, host i on network [net_of i] (one [Net.t], or a
   [Fabric] partition's). Returns the nodes, their envs and the words the
   deployment added to what [world] already reached; the rumor is injected
   at node 0 once that is measured. *)
let flood ~n ~graph_rng ~world net_of =
  let base = Obj.reachable_words world in
  let addrs = Array.init n (fun i -> Addr.make i 9000) in
  (* Peer graph: a fixed set of random ring strides shared by every node
     (a random circulant digraph — an expander with high probability).
     Shared strides mean the per-node footprint is just the 8-element
     peer list, not a per-node sample of the whole population. *)
  let degree = 8 in
  let strides = Array.init degree (fun _ -> 1 + Rng.int graph_rng (max 1 (n - 1))) in
  let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true } in
  let nodes = Array.make n None in
  let envs =
    Array.init n (fun i ->
        let peers = Array.to_list (Array.map (fun s -> addrs.((i + s) mod n)) strides) in
        let env = Env.create (net_of i) ~me:addrs.(i) ~nodes:peers in
        Apps.Epidemic.app ~config ~register:(fun x -> nodes.(i) <- Some x) env;
        env)
  in
  let resident = Obj.reachable_words (Obj.repr (world, nodes)) - base in
  let origin = Option.get nodes.(0) in
  ignore (Env.thread envs.(0) ~name:"rumor-origin" (fun () -> Apps.Epidemic.broadcast origin "r0"));
  (nodes, envs, resident)

let footprint ~n resident =
  [
    ("nodes", Float.of_int n);
    ("resident_words", Float.of_int resident);
    ("words_per_node", Float.of_int resident /. Float.of_int n);
  ]

let coverage ~n nodes =
  let covered =
    Array.fold_left
      (fun c -> function Some x when Apps.Epidemic.has_received x "r0" -> c + 1 | _ -> c)
      0 nodes
  in
  ("coverage", Float.of_int covered /. Float.of_int n)

let epidemic_run ?(obs = false) ~n ~seed () =
  with_metrics ~obs @@ fun () ->
  let engine = Engine.create ~seed () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng engine) in
  let net = Net.create engine tb in
  let graph_rng = Rng.split (Engine.rng engine) in
  let nodes, envs, resident = flood ~n ~graph_rng ~world:(Obj.repr net) (fun _ -> net) in
  if obs then Telemetry.monitor engine (fun () -> Telemetry.sample_envs envs);
  let _, wall = Row.timed (fun () -> Engine.run engine) in
  Engine.check_crashed engine;
  ( ( Net.messages_sent net - Net.messages_dropped net,
      footprint ~n resident
      @ coverage ~n nodes
        ::
        (if obs then
           [
             ("p50_link_wait_s", Obs.Rollup.quantile h_link_wait 0.5);
             ("p99_link_wait_s", Obs.Rollup.quantile h_link_wait 0.99);
           ]
         else []) ),
    wall )

(* The same flood as ONE deployment spread over [parts] engine partitions
   (Fabric) and executed on up to [domains] worker domains. Plain rows
   only: the run itself is deterministic in (seed, parts), but bench-side
   telemetry sampling would read host state across partitions
   mid-window, so the metrics twins stay sequential. The fields record
   what the speedup floor needs: how many workers the machine actually
   granted, the cores it could have granted, and the window count
   (virtual span / lookahead — the barrier overhead driver). *)
let epidemic_par_run ~domains ~parts ~n ~seed () =
  let fab = Fabric.create ~seed ~hosts:n ~parts () in
  let graph_rng = Rng.split (Engine.rng (Fabric.engine fab 0)) in
  let nodes, _, resident = flood ~n ~graph_rng ~world:(Obj.repr fab) (Fabric.net_of_host fab) in
  let info, wall = Row.timed (fun () -> Fabric.run ~domains fab) in
  for i = 0 to Fabric.parts fab - 1 do
    Engine.check_crashed (Fabric.engine fab i)
  done;
  ( ( Fabric.messages_sent fab - Fabric.messages_dropped fab,
      footprint ~n resident
      @ [
          coverage ~n nodes;
          ("domains", Float.of_int domains);
          ("workers", Float.of_int (Dpool.effective (min domains parts)));
          ("cores", Float.of_int (Pool.default_jobs ()));
          ("windows", Float.of_int info.Par.windows);
        ] ),
    wall )

(* ---------- chord lookups ---------- *)

let chord_run ?(obs = false) ~n ~seed ~lookups () =
  with_metrics ~obs @@ fun () ->
  let engine = Engine.create ~seed () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng engine) in
  let net = Net.create engine tb in
  let config = Apps.Chord.default_config in
  let md = Splay_runtime.Misc.pow2 config.Apps.Chord.m in
  let base = Obj.reachable_words (Obj.repr net) in
  (* evenly spaced ids: unique, sorted, and the ring array is shared
     read-only by every instance's fingers *)
  let spacing = max 1 (md / n) in
  let ring = Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000)) in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    let env = Env.create net ~me:ring.(i).Apps.Node.addr in
    Apps.Chord.assemble ~config ~ring ~index:i ~register:(fun c -> nodes.(i) <- Some c) env
  done;
  let resident = Obj.reachable_words (Obj.repr (net, nodes)) - base in
  let rng = Rng.split (Engine.rng engine) in
  (* bounded-memory stats: a 100k-node run records every lookup without
     holding every sample *)
  let lat = Sink.sketch () in
  let hops = Sink.sketch () in
  let completed = ref 0 and wrong = ref 0 in
  (* expected owner of [key]: first ring id at or after it (mod wrap) *)
  let expected key =
    let i = (key + spacing - 1) / spacing in
    if i >= n then ring.(0).Apps.Node.id else ring.(i).Apps.Node.id
  in
  let drivers = min 32 n in
  let per = max 1 (lookups / drivers) in
  for d = 0 to drivers - 1 do
    ignore (d : int);
    let c = match nodes.(Rng.int rng n) with Some c -> c | None -> assert false in
    ignore
      (Env.thread (Apps.Chord.node_env c) ~name:"lookup-driver" (fun () ->
           for _ = 1 to per do
             let key = Rng.int rng md in
             let t0 = Engine.now engine in
             match Apps.Chord.lookup c key with
             | Some (owner, h) ->
                 incr completed;
                 Sink.add lat (Engine.now engine -. t0);
                 Obs.observe h_lookup (Engine.now engine -. t0);
                 Sink.add hops (Float.of_int h);
                 if owner.Apps.Node.id <> expected key then incr wrong
             | None -> ()
           done))
  done;
  let _, wall = Row.timed (fun () -> Engine.run engine) in
  Engine.check_crashed engine;
  Common.shape_check
    (Printf.sprintf "chord %d: all %d lookups correct" n !completed)
    (!wrong = 0 && !completed > 0);
  let q s p = if Sink.is_empty s then 0.0 else Sink.quantile s p in
  ( ( !completed,
      footprint ~n resident
      @ [
          ("mean_hops", Sink.mean hops);
          ("p99_hops", q hops 0.99);
          ("p50_lookup_s", q lat 0.5);
          ("p99_lookup_s", q lat 0.99);
          (* the sketch counts every lookup, so the tail is there too *)
          ("p999_lookup_s", q lat 0.999);
        ] ),
    wall )

(* ---------- harness ---------- *)

let run () =
  Report.section "Scale — single-run node-count curve (one core)";
  let ep_sizes = Common.pick ~quick:[ 1_000; 10_000 ] ~full:[ 1_000; 10_000; 1_000_000 ] in
  let ch_sizes = Common.pick ~quick:[ 1_000; 10_000 ] ~full:[ 1_000; 10_000; 100_000 ] in
  (* metrics-plane twins: 10k everywhere (the guarded smoke size), plus
     the full-scale flagships so the committed baseline records the
     metrics overhead where it hurts most. The floors file reads the 10k
     twins' wall time against their plain rows, so those four rows take
     the median of {!Row.gated_reps} runs. *)
  let ep_obs_sizes = Common.pick ~quick:[ 10_000 ] ~full:[ 10_000; 1_000_000 ] in
  let ch_obs_sizes = Common.pick ~quick:[ 10_000 ] ~full:[ 10_000; 100_000 ] in
  let with_twin twins tag run n =
    let reps = if n = 10_000 then Row.gated_reps else 1 in
    let row obs =
      Row.time ~reps
        (Printf.sprintf "%s_%s%s" tag (Common.size_tag n) (if obs then "_obs" else ""))
        (run ~obs ~n)
    in
    let plain = row false in
    if List.mem n twins then [ plain; row true ] else [ plain ]
  in
  let floods =
    List.concat_map
      (with_twin ep_obs_sizes "epidemic" (fun ~obs ~n -> epidemic_run ~obs ~n ~seed:11))
      ep_sizes
  in
  let chords =
    List.concat_map
      (with_twin ch_obs_sizes "chord" (fun ~obs ~n ->
           chord_run ~obs ~n ~seed:23 ~lookups:(min 2_000 (n * 2))))
      ch_sizes
  in
  (* The speedup floor's pair at every scale: the 100k flood sequential
     and over --domains partitions. Every sequential row runs before the
     first worker domain starts (a process that has started domains runs
     later sequential work slower and less steadily, which would flatter
     the ratio), and the two sides run back to back. The par row's
     speedup_x sits beside workers and cores: the floor is gated only
     where >= 2 workers were granted. *)
  let pair_n = 100_000 and domains = !Common.domains in
  let seq =
    Row.time ~reps:Row.gated_reps
      (Printf.sprintf "epidemic_%s" (Common.size_tag pair_n))
      (epidemic_run ~n:pair_n ~seed:11)
  in
  let par =
    Row.time ~reps:Row.gated_reps
      (Printf.sprintf "epidemic_par_%s" (Common.size_tag pair_n))
      (epidemic_par_run ~domains ~parts:domains ~n:pair_n ~seed:11)
  in
  let par =
    let speedup = Row.ops_per_sec par /. Row.ops_per_sec seq in
    { par with Row.fields = par.Row.fields @ [ ("speedup_x", speedup) ] }
  in
  (* the parallel-engine twin of the 10k row: same workload, same seed,
     one deployment over [domains] partitions *)
  let par_10k =
    Row.time ~reps:1 "epidemic_par_10k" (epidemic_par_run ~domains ~parts:domains ~n:10_000 ~seed:11)
  in
  let rows = floods @ chords @ [ seq; par; par_10k ] in
  List.iter
    (fun r ->
      match List.assoc_opt "coverage" r.Row.fields with
      | Some c ->
          Common.shape_check
            (Printf.sprintf "%s: flood covers the graph (%.1f%%)" r.Row.name (100.0 *. c))
            (c > 0.9)
      | None -> ())
    rows;
  Row.write ~dir:!Common.out_dir "BENCH_scale.json" rows
