(* churn: the paper's Fig. 11 at paper scale. Pastry deployed by the
   controller onto daemons over the 450-host PlanetLab model, the
   synthetic Overnet trace (550 concurrent) replayed at x10, a closed
   loop of 8 lookup drivers, and the metrics plane on as
   `splay run --metrics-out` runs it. The drivers pause U(0.05, 0.2) s
   between lookups (a tenth of Fig. 11's pauses): ~4k lookups a run, so
   p99 rests on ~40 samples instead of ~14, which under churn sit on
   RPC-timeout plateaus 2 s apart.

   Set-up (trace, platform, deploy, convergence) runs inside the
   simulation, so its end is marked from the controller-side main fiber
   with the host clock; the measured phase runs from that mark until the
   engine drains and the metrics dump is rendered. *)

open Splay
module Pastry = Splay_apps.Pastry

let hosts = 450
let concurrent = 550
let trace_duration = 3000.0
let speedup = 10.0
let drivers = 8
let horizon = 100_000.0

(* The deployment is Fig. 11's fixed instance — the trace from seed 1111
   and the platform from seed 120, as the figure's x10 run has them — so
   a run's seed draws only the lookup stream (drivers' pauses, origins
   and keys). Across seeds the work is then the same experiment, and the
   spread measures the program rather than the topology lottery. *)
let trace_seed = 1111
let platform_seed = 120

let pastry_config =
  {
    Pastry.default_config with
    join_delay_per_position = 0.02;
    rpc_timeout = 2.0;
    stabilize_interval = 3.0;
  }

(* counters at the end of set-up, subtracted from the final ones *)
type at_mark = {
  phase : Phase.mark;
  events : int;
  msgs : int;
  bytes : int;
  dropped : int;
  calls : int;
  clock : float;
}

let run ~seed =
  let root = Measure.open_ "churn" in
  let parent = Measure.id root in
  let trace, preload_s =
    Measure.host_span ~parent "setup.preload" (fun () ->
        Transform.speedup speedup
          (Trace.synthetic_overnet ~concurrent ~duration:trace_duration (Rng.create trace_seed)))
  in
  let init_pop = Trace.population trace ~at:0.0 in
  (* the metrics plane, armed before the platform exists as the CLI does *)
  Obs.reset ();
  Obs.metrics_enabled := true;
  let p, testbed_s =
    Measure.host_span ~parent "setup.testbed" (fun () -> Platform.create ~seed:platform_seed (Platform.Planetlab hosts))
  in
  let ctl = Platform.controller p and eng = Platform.engine p and net = Platform.net p in
  let envs = ref [] and nodes = ref [] in
  let calls () = List.fold_left (fun a e -> a + Rpc.calls_issued e) 0 !envs in
  let issued = ref 0 and ok = ref 0 and failed = ref 0 in
  let lat = ref [] and hops = ref [] in
  let deploy_host = ref 0.0 and deploy_sim = ref 0.0 and overlay_s = ref 0.0 in
  let mark = ref None and stats = ref None and live_end = ref 0 and v_end = ref 0.0 in
  let main () =
    let v0 = Engine.now eng in
    let dep, host =
      Measure.host_span ~parent "setup.app" (fun () ->
          Controller.deploy ctl ~name:"pastry"
            ~main:(fun env ->
              envs := env :: !envs;
              Pastry.app ~config:pastry_config ~register:(fun x -> nodes := x :: !nodes) env)
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) init_pop))
    in
    deploy_host := host;
    deploy_sim := Engine.now eng -. v0;
    Controller.monitor dep;
    let (), conv = Measure.host_span ~parent "setup.overlay" (fun () -> Env.sleep ((Float.of_int init_pop *. 0.02) +. 120.0)) in
    overlay_s := conv;
    let msgs = Net.messages_sent net in
    mark :=
      Some
        {
          phase = Phase.start ();
          events = (Engine.stats eng).Engine.events_fired;
          msgs;
          bytes = Net.bytes_sent net;
          dropped = Net.messages_dropped net;
          calls = calls ();
          clock = Engine.now eng;
        };
    let rng = Rng.create seed in
    let stop = ref false and active = ref drivers in
    for _ = 1 to drivers do
      ignore
        (Env.thread (Controller.env ctl) ~name:"lookup-driver" (fun () ->
             let lrng = Rng.split rng in
             while not !stop do
               Env.sleep (0.05 +. Rng.float lrng 0.15);
               let live = List.filter (fun x -> not (Pastry.is_stopped x)) !nodes in
               if live <> [] then begin
                 let origin = Rng.pick_list lrng live in
                 let key = Rng.int lrng (Misc.pow2 32) in
                 let start = Engine.now eng in
                 incr issued;
                 (match Pastry.lookup origin key with
                 | Some (_, h) ->
                     incr ok;
                     lat := (Engine.now eng -. start) :: !lat;
                     hops := Float.of_int h :: !hops
                 | None -> incr failed);
                 Measure.op_span ~parent "pastry.lookup" ~start ~stop:(Engine.now eng)
               end
             done;
             decr active))
    done;
    let _proc, st = Replayer.run_trace dep trace in
    stats := Some st;
    Env.sleep (Trace.duration trace +. 30.0);
    stop := true;
    (* let every lookup in flight finish, so each one issued has an outcome *)
    while !active > 0 do
      Env.sleep 1.0
    done;
    live_end := Controller.live_count dep;
    v_end := Engine.now eng
  in
  ignore
    (Env.thread (Controller.env ctl) ~name:"bench-main" (fun () ->
         Fun.protect
           ~finally:(fun () ->
             List.iter Daemon.shutdown (Platform.daemons p);
             ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
           main));
  let st = Engine.run ~until:horizon eng in
  let rollup_rows, rpc_samples =
    match !mark with
    | None -> (0, 0)
    | Some _ ->
        let dump = Obs.metrics_plane_jsonl () in
        ( List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' dump)),
          Obs.Rollup.count (Obs.histogram "rpc.latency") )
  in
  Obs.metrics_enabled := false;
  Obs.reset ();
  let m = match !mark with Some m -> m | None -> failwith "churn: set-up never finished" in
  let events = st.Engine.events_fired - m.events in
  let wall_s, gc_layers = Phase.stop m.phase ~events in
  Measure.host_record ~parent "engine.run" ~start:m.phase.Phase.t0 ~stop:(m.phase.Phase.t0 +. wall_s);
  ignore (Measure.close root : float);
  let rstats = match !stats with Some s -> s | None -> failwith "churn: replay never started" in
  let fi = Float.of_int in
  let msgs = Net.messages_sent net - m.msgs in
  let calls = calls () - m.calls in
  let per_op x = fi x /. fi (max 1 !issued) in
  let errors =
    Phase.crash_errors [ ("engine", eng) ]
    @ Phase.check
        (!ok + !failed = !issued)
        (Printf.sprintf "lookup outcomes %d ok + %d failed, %d issued" !ok !failed !issued)
    @ Phase.check (!issued > 0) "no lookup was issued"
    @ Phase.check (!live_end > 0) "no instance alive at the end"
  in
  let lat_l = Measure.sorted_of_list !lat in
  let hops_l = Measure.sorted_of_list !hops in
  {
    Phase.setup_s = preload_s +. testbed_s +. !deploy_host +. !overlay_s;
    wall_s;
    attempted = !issued;
    ok = !ok;
    p50 = Measure.quantile_sorted lat_l 0.5;
    p99 = Measure.quantile_sorted lat_l 0.99;
    lat_n = Array.length lat_l;
    lat_kept = Array.length lat_l;
    errors;
    layers =
      [
        ("sim.max_queue", fi st.Engine.max_queue_depth);
        ("sim.virtual_s", !v_end -. m.clock);
        ("par.windows", 0.0);
        ("par.workers", 1.0);
        ("net.msgs", fi msgs);
        ("net.bytes", fi (Net.bytes_sent net - m.bytes));
        ("net.dropped", fi (Net.messages_dropped net - m.dropped));
        ("net.msgs_per_op", per_op msgs);
        ("rpc.calls", fi calls);
        ("rpc.calls_per_op", per_op calls);
        ("pastry.hops_mean", Measure.mean !hops);
        ("pastry.hops_p99", Measure.quantile_sorted hops_l 0.99);
        ("ctl.deploy_sim_s", !deploy_sim);
        ("ctl.deploy_host_s", !deploy_host);
        ("churn.joins", fi rstats.Replayer.joins);
        ("churn.leaves", fi rstats.Replayer.leaves);
        ("churn.failed_joins", fi rstats.Replayer.failed_joins);
        ("obs.rollup_rows", fi rollup_rows);
        ("obs.rpc_samples", fi rpc_samples);
        ("setup.testbed_s", testbed_s);
        ("setup.overlay_s", !overlay_s);
        ("setup.app_s", !deploy_host);
        ("setup.preload_s", preload_s);
      ]
      @ gc_layers;
  }
