(* Macro benchmarks of the message plane: whole-experiment throughput at
   the level users feel. Three workloads — a full Chord deployment with
   lookups, an epidemic broadcast, and a tight RPC round-trip loop — each
   run as independent seeded trials fanned over domains, reporting
   simulated-events/s (Chord, epidemic) and round-trips/s (RPC) to
   BENCH_macro.json. The micro suite isolates single hot paths; this one
   measures the spawn→send→deliver→serve→reply cycle end to end, so a
   regression anywhere in the message plane moves these numbers.

   Results are recorded for jobs=1 and for a two-domain fan-out (the
   [_j2] rows), so the committed baseline documents both the single-domain
   cost and the multicore scaling of the same workloads. *)

open Splay
module Apps = Splay_apps

(* Run a full controller deployment to completion and return the engine's
   cumulative fired-event count (the sim-events denominator). *)
let run_deployment ~seed spec main =
  let p = Platform.create ~seed spec in
  Platform.run ~until:100_000.0 ~name:"macro-main" p main;
  (Engine.stats (Platform.engine p)).Engine.events_fired

(* Chord: staggered join, stabilization, then [per_node] lookups from
   every node, then a graceful undeploy. *)
let chord_trial ~n ~per_node seed =
  run_deployment ~seed (Platform.Cluster n) (fun p ->
      let ctl = Platform.controller p in
      let config =
        {
          Apps.Chord.default_config with
          m = 16;
          stabilize_interval = 2.0;
          join_delay_per_position = 0.3;
        }
      in
      let nodes = ref [] in
      let dep =
        Controller.deploy ctl ~name:"chord"
          ~main:(Apps.Chord.app ~config ~register:(fun c -> nodes := c :: !nodes))
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
      in
      Env.sleep ((Float.of_int n *. 0.3) +. (10.0 *. config.Apps.Chord.stabilize_interval));
      let rng = Rng.split (Engine.rng (Platform.engine p)) in
      List.iter
        (fun c ->
          if not (Apps.Chord.is_stopped c) then
            for _ = 1 to per_node do
              ignore (Apps.Chord.lookup c (Rng.int rng (1 lsl 16)))
            done)
        !nodes;
      Controller.undeploy dep)

(* Epidemic: inject rumors at staggered origins, let each flood out. *)
let epidemic_trial ~n ~rumors seed =
  run_deployment ~seed (Platform.Cluster n) (fun p ->
      ignore p;
      let ctl = Platform.controller p in
      let nodes = ref [] in
      ignore
        (Controller.deploy ctl ~name:"epidemic"
           ~main:
             (Apps.Epidemic.app
                ~config:{ Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = false }
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Random_subset 12) n));
      Env.sleep 5.0;
      let arr = Array.of_list !nodes in
      for r = 1 to rumors do
        Apps.Epidemic.broadcast arr.((r * 7) mod Array.length arr) ("rumor-" ^ string_of_int r);
        Env.sleep 2.0
      done;
      Env.sleep 30.0)

(* The echo server's procedure: its argument back, as a list. *)
let p_echo = Rpc.proc "echo" (Rpc.arg Codec.int) (Codec.list Codec.int)

(* RPC: one client hammering one server with sequential echo calls — the
   per-call cost of the whole dispatch path (fiber spawn included), with
   nothing else running. Returns completed round trips. *)
let rpc_trial ~calls seed =
  let eng = Engine.create ~seed () in
  let tb = Testbed.cluster ~n:2 (Engine.rng eng) in
  let net = Net.create eng tb in
  let server = Env.create net ~me:(Addr.make 0 2000) in
  let client = Env.create net ~me:(Addr.make 1 2000) in
  Rpc.handle server p_echo (fun i -> [ i ]);
  let ok = ref 0 in
  ignore
    (Env.thread client (fun () ->
         for i = 1 to calls do
           match Rpc.invoke client server.Env.me p_echo i with
           | Ok [ j ] when j = i -> incr ok
           | _ -> ()
         done));
  ignore (Engine.run eng);
  if !ok <> calls then
    failwith (Printf.sprintf "rpc_roundtrip: %d of %d calls completed" !ok calls);
  calls

(* Every row here feeds a gated ratio (the [_obs] twin against its plain
   row, the [_j2] fan-out against its jobs=1 row), so each takes the
   median of {!Row.gated_reps} runs of its trial batch. *)
let measure ~jobs name seeds trial =
  Row.time ~reps:Row.gated_reps
    (if jobs = 1 then name else Printf.sprintf "%s_j%d" name jobs)
    (fun () ->
      Row.timed (fun () ->
          (List.fold_left ( + ) 0 (Pool.map ~jobs trial seeds), [ ("jobs", Float.of_int jobs) ])))

(* Metrics-plane variants: the same workloads re-run with windowed rollups
   enabled ([Obs.metrics_enabled], no trace plane). The committed baseline
   then documents the metrics overhead — the `_obs` rate against its plain
   twin is a ratio the floors file guards — and the rollup histograms
   supply end-to-end RPC latency percentiles that the plain rows (which
   only count ops) cannot see. Worker-domain rollups merge through Pool's
   capture/absorb in trial order, so the percentiles are
   jobs-independent. *)
let h_rpc_latency = Obs.histogram "rpc.latency"

let measure_obs ~jobs name seeds trial =
  let saved = !Obs.metrics_enabled in
  Obs.metrics_enabled := true;
  Obs.Rollup.clear ();
  Fun.protect
    ~finally:(fun () -> Obs.metrics_enabled := saved)
    (fun () ->
      let row = measure ~jobs name seeds trial in
      let q p = Obs.Rollup.quantile h_rpc_latency p in
      if Obs.Rollup.count h_rpc_latency = 0 then row
      else
        {
          row with
          Row.fields =
            row.Row.fields @ [ ("p50_rpc_s", q 0.5); ("p99_rpc_s", q 0.99); ("p999_rpc_s", q 0.999) ];
        })

let run () =
  Report.section "Macro benchmarks — message-plane workloads";
  let n_chord = Common.pick ~quick:24 ~full:64 in
  let per_node = Common.pick ~quick:8 ~full:10 in
  let n_epidemic = Common.pick ~quick:60 ~full:150 in
  let rumors = Common.pick ~quick:8 ~full:12 in
  let calls = Common.pick ~quick:25_000 ~full:50_000 in
  let trials = 4 in
  let seeds base = List.init trials (fun i -> base + i) in
  let rows =
    List.concat_map
      (fun jobs ->
        (* explicit lets: list literals evaluate right-to-left, and the
           measurements should run (and print) in declaration order *)
        let chord = measure ~jobs "chord_events" (seeds 100) (chord_trial ~n:n_chord ~per_node) in
        let epi = measure ~jobs "epidemic_events" (seeds 200) (epidemic_trial ~n:n_epidemic ~rumors) in
        let rpc = measure ~jobs "rpc_roundtrips" (seeds 300) (rpc_trial ~calls) in
        let chord_o =
          measure_obs ~jobs "chord_events_obs" (seeds 100) (chord_trial ~n:n_chord ~per_node)
        in
        let epi_o =
          measure_obs ~jobs "epidemic_events_obs" (seeds 200) (epidemic_trial ~n:n_epidemic ~rumors)
        in
        let rpc_o = measure_obs ~jobs "rpc_roundtrips_obs" (seeds 300) (rpc_trial ~calls) in
        [ chord; epi; rpc; chord_o; epi_o; rpc_o ])
      [ 1; 2 ]
  in
  Row.write ~dir:!Common.out_dir "BENCH_macro.json" rows
