(* Shared machinery for the experiment harnesses: platform bring-up,
   lookup-delay measurement, series printing. *)

open Splay
module Apps = Splay_apps
module Baselines = Splay_baselines

type scale = Quick | Full
(* Quick keeps every experiment's *shape* while trimming populations and
   durations so the whole suite runs in minutes; Full reproduces the
   paper's sizes. *)

let scale = ref Quick

let pick ~quick ~full = match !scale with Quick -> quick | Full -> full

(* Trial fan-out width (--jobs N). Independent trials of an experiment run
   on this many domains via Splay_sim.Pool; per-trial outputs are merged
   in trial-index order, so figure output is byte-identical for any value. *)
let jobs = ref 1

let par_map f xs = Pool.map ~jobs:!jobs f xs

(* Partition/worker-domain count for the parallel single-run engine
   (--domains N). Unlike --jobs, changing this changes the schedule —
   a parallel run is a pure function of (seed, domains), byte-identical
   only across different *worker* counts for the same partitioning. *)
let domains = ref 4

(* Where every section writes its BENCH_*.json baseline (--out-dir DIR).
   The smoke targets point this at an untracked directory so routine
   `make check` runs never dirty the committed baselines. *)
let out_dir = ref "."

(* Observability: --obs / --obs-trace=FILE / --critical-path, parsed and
   acted on by the shared Obs_flags helper (same flags as splay_cli). *)
let obs_begin () = Obs_flags.arm ()
let obs_end () = ignore (Obs_flags.finish () : bool)

(* Bring up a testbed + controller + daemons and run [main] to completion.
   The engine is drained up to [horizon] after main finishes its work. *)
let with_platform ?(seed = 42) ?daemon_config ?(horizon = 100_000.0) spec main =
  let p = Platform.create ~seed ?daemon_config spec in
  let result = ref None in
  ignore
    (Env.thread
       (Controller.env (Platform.controller p))
       ~name:"bench-main"
       (fun () ->
         Fun.protect
           ~finally:(fun () ->
             List.iter Daemon.shutdown (Platform.daemons p);
             ignore
               (Engine.schedule (Platform.engine p) ~delay:0.0 (fun () ->
                    Env.stop (Controller.env (Platform.controller p)))))
           (fun () -> result := Some (main p))));
  ignore (Engine.run ~until:horizon (Platform.engine p));
  Engine.check_crashed (Platform.engine p);
  match !result with Some r -> r | None -> failwith "experiment did not finish"

(* Deploy a Pastry overlay and wait for it to converge. *)
let deploy_pastry ?(config = Apps.Pastry.default_config) ?(name = "pastry") ?superset ctl ~n =
  let nodes = ref [] in
  let dep =
    Controller.deploy ctl ?superset ~name
      ~main:(Apps.Pastry.app ~config ~register:(fun x -> nodes := x :: !nodes))
      (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
  in
  (dep, nodes)

let wait_convergence ~n ~join_delay ~rounds ~interval =
  Env.sleep ((Float.of_int n *. join_delay) +. (Float.of_int rounds *. interval))

(* Issue [count] random lookups from random live origins, collecting
   delays (seconds), hop counts, and failures into streaming sinks.
   Figure runs hold a few thousand samples, so the sinks are exact. *)
let measure_pastry_lookups ~rng ~keyspace ~count nodes =
  let delays = Sink.exact () and hops = Sink.exact () in
  let failures = ref 0 in
  let eng = Engine.engine () in
  let live () = List.filter (fun x -> not (Apps.Pastry.is_stopped x)) nodes in
  for _ = 1 to count do
    match live () with
    | [] -> incr failures
    | l -> (
        let origin = Rng.pick_list rng l in
        let key = Rng.int rng keyspace in
        let t0 = Engine.now eng in
        match Apps.Pastry.lookup origin key with
        | Some (_, h) ->
            Sink.add delays (Engine.now eng -. t0);
            Sink.add hops (Float.of_int h)
        | None -> incr failures)
  done;
  (delays, hops, !failures)

(* Percentile row helper used by the figure printers. *)
let pcts = [ 5.0; 25.0; 50.0; 75.0; 90.0 ]

let pct_cells d =
  if Dist.is_empty d then List.map (fun _ -> "-") pcts
  else List.map (fun p -> Report.float_cell ~decimals:4 (Dist.percentile d p)) pcts

let pct_cells_sink s = Report.sink_pct_cells ~decimals:4 s pcts

let ms v = Report.float_cell ~decimals:1 (1000.0 *. v)

(* Compact node-count tag for workload names: 1000 -> "1k", 1000000 -> "1m". *)
let size_tag n =
  if n >= 1_000_000 && n mod 1_000_000 = 0 then Printf.sprintf "%dm" (n / 1_000_000)
  else if n >= 1_000 && n mod 1_000 = 0 then Printf.sprintf "%dk" (n / 1_000)
  else string_of_int n

let shape_check name ok = Printf.printf "  [shape %s] %s\n" (if ok then "OK" else "MISS") name
