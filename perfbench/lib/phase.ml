(* What one measured repetition of a workload reports, and the bracket
   that times its measured phase. *)

type iteration = {
  setup_s : float; (* host seconds to build the deployment *)
  wall_s : float; (* host seconds of the measured phase *)
  attempted : int; (* operations the workload issued *)
  ok : int; (* operations that succeeded in the modelled system *)
  p50 : float; (* simulated latency of the workload's operation *)
  p99 : float;
  lat_n : int; (* operations with a recorded latency *)
  lat_kept : int; (* samples the quantiles rest on *)
  errors : string list; (* correctness violations: any one fails the run *)
  layers : (string * float) list; (* per-layer metrics *)
}

(* The metrics a run reports, with their units, in report order.
   BENCHMARK.json lists the same names and units; the benchmark's test
   holds the two together. *)
let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("ok_frac", "ratio");
    ("sim_p50_s", "s");
    ("sim_p99_s", "s");
  ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.ns_per_event", "ns");
    ("sim.max_queue", "count");
    ("sim.virtual_s", "s");
    ("par.windows", "count");
    ("par.workers", "count");
    ("par.speedup_x", "x");
    ("par.partition_cost_x", "x");
    ("net.msgs", "count");
    ("net.bytes", "bytes");
    ("net.dropped", "count");
    ("net.msgs_per_op", "count/op");
    ("rpc.calls", "count");
    ("rpc.calls_per_op", "count/op");
    ("pastry.hops_mean", "hops");
    ("pastry.hops_p99", "hops");
    ("dht.get_p50_s", "s");
    ("dht.get_p99_s", "s");
    ("dht.put_p99_s", "s");
    ("dht.served_per_op", "count/op");
    ("dht.batched_frac", "ratio");
    ("dht.server_shed", "count");
    ("load.offered", "count");
    ("load.client_words", "words");
    ("load.wait_mean_s", "s");
    ("stats.samples_kept", "count");
    ("stats.samples_kept_frac", "ratio");
    ("ctl.deploy_sim_s", "s");
    ("ctl.deploy_host_s", "s");
    ("churn.joins", "count");
    ("churn.leaves", "count");
    ("churn.failed_joins", "count");
    ("obs.rollup_rows", "count");
    ("obs.rpc_samples", "count");
    ("setup.testbed_s", "s");
    ("setup.overlay_s", "s");
    ("setup.app_s", "s");
    ("setup.preload_s", "s");
    ("gc.minor_words_per_event", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("gc.pause_s", "s");
    ("gc.pause_max_s", "s");
    ("trace.overhead_frac", "ratio");
    ("machine.cores", "count");
  ]

type mark = { t0 : float; gc0 : Gc.stat }

(* Open the measured phase. In a traced run this also drains the GC
   event ring, so pauses of set-up work are not charged to the run. *)
let start () =
  if !Measure.tracing then Gc_pause.arm ();
  let gc0 = Gc.quick_stat () in
  { t0 = Measure.now (); gc0 }

(* Close it: host seconds, plus the engine's and the GC's metrics for
   the [events] engine events the phase fired. *)
let stop m ~events =
  let wall = Measure.now () -. m.t0 in
  let gc1 = Gc.quick_stat () in
  let pauses = if !Measure.tracing then Some (Gc_pause.collect ()) else None in
  let per_event x = x /. Float.of_int (max 1 events) in
  let layers =
    [
      ("sim.events", Float.of_int events);
      ("sim.ns_per_event", per_event (wall *. 1e9));
      ("gc.minor_words_per_event", per_event (gc1.Gc.minor_words -. m.gc0.Gc.minor_words));
      ("gc.promoted_words", gc1.Gc.promoted_words -. m.gc0.Gc.promoted_words);
      ("gc.major_collections", Float.of_int (gc1.Gc.major_collections - m.gc0.Gc.major_collections));
    ]
    @
    match pauses with
    | Some p -> [ ("gc.pause_s", p.Gc_pause.pause_s); ("gc.pause_max_s", p.Gc_pause.max_s) ]
    | None -> []
  in
  (match pauses with
  | Some p when p.Gc_pause.lost > 0 ->
      Printf.printf "  warning: the GC event ring lost %d events; gc.pause_s is a lower bound\n"
        p.Gc_pause.lost
  | _ -> ());
  (wall, layers)

(* Engine.crashed must be empty on every engine a run drove: a fiber
   that died silently would otherwise just make the numbers look good. *)
let crash_errors engines =
  List.concat_map
    (fun (label, eng) ->
      List.map
        (fun (p, e) ->
          Printf.sprintf "%s: fiber %s crashed: %s" label (Splay_sim.Engine.proc_name p)
            (Printexc.to_string e))
        (Splay_sim.Engine.crashed eng))
    engines

let check cond msg = if cond then [] else [ msg ]
