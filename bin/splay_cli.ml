(* The splay command-line tool: submit jobs to a simulated testbed, and
   generate / inspect / transform churn descriptions — the workflow the
   paper drives through splayctl's command-line interface.

     splay run --app pastry --nodes 100 --testbed planetlab --lookups 200
     splay run --app chord --nodes 50 --churn-script churn.txt
     splay profile churn.txt
     splay trace gen --concurrent 200 --duration 3000 -o overnet.trace
     splay trace info overnet.trace
     splay trace speedup 5 overnet.trace -o fast.trace
     splay trace crop 600 1800 overnet.trace -o window.trace
     splay run --app chord --trace run.jsonl && splay trace run.jsonl --critical-path *)

open Cmdliner
open Splay
module Apps = Splay_apps

(* {1 splay run} *)

type app_kind = Chord | Chord_ft | Pastry | Cyclon | Epidemic

let app_conv =
  Arg.enum
    [
      ("chord", Chord); ("chord-ft", Chord_ft); ("pastry", Pastry);
      ("cyclon", Cyclon); ("epidemic", Epidemic);
    ]

type testbed_kind = Tb_planetlab | Tb_modelnet | Tb_cluster

let testbed_conv =
  Arg.enum [ ("planetlab", Tb_planetlab); ("modelnet", Tb_modelnet); ("cluster", Tb_cluster) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* `splay run --domains N` (N > 1): one deployment partitioned across N
   event-loop domains on the conservative windowed parallel engine
   (Fabric/Par). Only the epidemic application runs in this mode today —
   it is the single-run workload the parallel engine was built for; the
   daemon/controller stack stays on the sequential engine. The run goes
   to quiescence (an epidemic flood terminates by itself), so --duration
   is not consulted. *)
let run_parallel ~nodes ~seed ~domains =
  let parts = domains in
  let fab = Fabric.create ~seed ~hosts:nodes ~parts () in
  let graph_rng = Rng.split (Engine.rng (Fabric.engine fab 0)) in
  let addrs = Array.init nodes (fun i -> Addr.make i 9000) in
  let degree = 8 in
  let strides = Array.init degree (fun _ -> 1 + Rng.int graph_rng (max 1 (nodes - 1))) in
  let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true } in
  let insts = Array.make nodes None in
  let env0 = ref None in
  for i = 0 to nodes - 1 do
    let peers = Array.to_list (Array.map (fun s -> addrs.((i + s) mod nodes)) strides) in
    let env = Env.create (Fabric.net_of_host fab i) ~me:addrs.(i) ~nodes:peers in
    if i = 0 then env0 := Some env;
    Apps.Epidemic.app ~config ~register:(fun x -> insts.(i) <- Some x) env
  done;
  Printf.printf "deploying %d x epidemic across %d partitions (lookahead %.4f s)...\n%!" nodes
    parts (Fabric.lookahead fab);
  let origin = match insts.(0) with Some x -> x | None -> assert false in
  let env0 = match !env0 with Some e -> e | None -> assert false in
  ignore (Env.thread env0 ~name:"rumor-origin" (fun () -> Apps.Epidemic.broadcast origin "r0"));
  let t0 = Unix.gettimeofday () in
  let info = Fabric.run ~domains fab in
  let wall = Unix.gettimeofday () -. t0 in
  for i = 0 to parts - 1 do
    Engine.check_crashed (Fabric.engine fab i)
  done;
  let covered = ref 0 in
  Array.iter
    (function Some x when Apps.Epidemic.has_received x "r0" -> incr covered | _ -> ())
    insts;
  Printf.printf "parallel run: %d windows on %d worker domains (%d requested), %.2f s wall\n"
    info.Par.windows
    (Dpool.effective (min domains parts))
    domains wall;
  Printf.printf "coverage: %d/%d nodes received the rumor (%.1f%%)\n" !covered nodes
    (100.0 *. Float.of_int !covered /. Float.of_int nodes);
  Printf.printf "network: %d messages, %d MB, %d dropped\n" (Fabric.messages_sent fab)
    (Fabric.bytes_sent fab / 1024 / 1024)
    (Fabric.messages_dropped fab)

(* A DHT's lookup driver: [register] collects the instances as they
   start; [drive rng] looks a random key of [bits] bits up from a random
   live instance and returns the route's hop count. *)
let lookup_driver ~is_stopped ~lookup ~bits =
  let nodes = ref [] in
  let register c = nodes := c :: !nodes in
  let drive rng =
    match List.filter (fun c -> not (is_stopped c)) !nodes with
    | [] -> None
    | live ->
        let origin = Rng.pick_list rng live in
        Option.map snd (lookup origin (Rng.int rng (Misc.pow2 bits)))
  in
  (register, drive)

let run_sequential app testbed hosts nodes duration lookups churn_script churn_trace speedup seed descriptor_file =
  let spec =
    match testbed with
    | Tb_planetlab -> Platform.Planetlab hosts
    | Tb_modelnet -> Platform.Modelnet { hosts = max hosts nodes; bandwidth = None }
    | Tb_cluster -> Platform.Cluster hosts
  in
  let p = Platform.create ~seed spec in
  Platform.run ~name:"experiment-main" p (fun p ->
      let ctl = Platform.controller p in
      let eng = Platform.engine p in
      let rng = Rng.split (Engine.rng eng) in
      (* a lookup driver where the protocol supports it *)
      let main, lookup_fn =
        match app with
        | Chord ->
            let register, drive =
              lookup_driver ~is_stopped:Apps.Chord.is_stopped ~lookup:Apps.Chord.lookup ~bits:24
            in
            ((fun env -> Apps.Chord.app ~register env), drive)
        | Chord_ft ->
            let register, drive =
              lookup_driver ~is_stopped:Apps.Chord_ft.is_stopped ~lookup:Apps.Chord_ft.lookup
                ~bits:24
            in
            ((fun env -> Apps.Chord_ft.app ~register env), drive)
        | Pastry ->
            let register, drive =
              lookup_driver ~is_stopped:Apps.Pastry.is_stopped ~lookup:Apps.Pastry.lookup ~bits:32
            in
            ((fun env -> Apps.Pastry.app ~register env), drive)
        | Cyclon -> ((fun env -> Apps.Cyclon.app ~register:ignore env), fun _ -> None)
        | Epidemic -> ((fun env -> Apps.Epidemic.app ~register:ignore env), fun _ -> None)
      in
      let nodes =
        match descriptor_file with
        | Some path -> (Descriptor.parse (read_file path)).Descriptor.nb_splayd
        | None -> nodes
      in
      Printf.printf "deploying %d x %s on %s (%d hosts)...\n%!" nodes
        (match app with
        | Chord -> "chord" | Chord_ft -> "chord-ft" | Pastry -> "pastry"
        | Cyclon -> "cyclon" | Epidemic -> "epidemic")
        (match testbed with
        | Tb_planetlab -> "planetlab" | Tb_modelnet -> "modelnet" | Tb_cluster -> "cluster")
        hosts;
      let descriptor =
        match descriptor_file with
        | Some path -> Descriptor.parse (read_file path)
        | None -> Descriptor.make ~bootstrap:(Descriptor.Head 1) nodes
      in
      let t0 = Engine.now eng in
      let dep = Controller.deploy ctl ~name:"cli-job" ~main descriptor in
      Printf.printf "deployed %d instances in %.2f virtual seconds\n%!"
        (Controller.live_count dep) (Engine.now eng -. t0);
      (* splayctl-style job monitoring into the metrics plane *)
      Controller.monitor dep;
      (* churn, if requested *)
      (match (churn_script, churn_trace) with
      | Some path, _ ->
          let script = Script.parse (read_file path) in
          Printf.printf "running churn script %s (%.0f s)\n%!" path (Script.duration script);
          ignore (Replayer.run_script dep script)
      | None, Some path ->
          let trace = Trace.of_string (read_file path) in
          let trace = if speedup <> 1.0 then Transform.speedup speedup trace else trace in
          Printf.printf "replaying trace %s at x%g (%.0f s)\n%!" path speedup
            (Trace.duration trace);
          ignore (Replayer.run_trace dep trace)
      | None, None -> ());
      Env.sleep duration;
      (* measurements *)
      let delays = Dist.create () and failures = ref 0 and hops = Dist.create () in
      for _ = 1 to lookups do
        let t0 = Engine.now eng in
        match lookup_fn rng with
        | Some h ->
            Dist.add delays (Engine.now eng -. t0);
            Dist.add hops (Float.of_int h)
        | None -> incr failures
      done;
      Printf.printf "\npopulation: %d live instances at t=%s\n" (Controller.live_count dep)
        (Misc.duration_to_string (Engine.now eng));
      if lookups > 0 && not (Dist.is_empty delays) then begin
        Printf.printf "lookups: %d ok, %d failed; avg route %.2f hops\n"
          (Dist.count delays) !failures (Dist.mean hops);
        Printf.printf "delays: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms\n"
          (1000.0 *. Dist.percentile delays 50.0)
          (1000.0 *. Dist.percentile delays 90.0)
          (1000.0 *. Dist.percentile delays 99.0)
      end;
      Printf.printf "network: %d messages, %d MB, %d dropped\n"
        (Net.messages_sent (Platform.net p))
        (Net.bytes_sent (Platform.net p) / 1024 / 1024)
        (Net.messages_dropped (Platform.net p));
      Controller.undeploy dep)

let run_cmd app testbed hosts nodes duration lookups churn_script churn_trace speedup seed
    descriptor_file obs_trace metrics_out metrics_window domains =
  if domains < 1 then begin
    Printf.eprintf "splay run: --domains expects a positive integer, got %d\n" domains;
    exit 2
  end;
  if domains > 1 then begin
    (match app with
    | Epidemic -> ()
    | _ ->
        Printf.eprintf
          "splay run: --domains N > 1 currently supports only --app epidemic (single-run \
           parallel mode)\n";
        exit 2);
    if churn_script <> None || churn_trace <> None || descriptor_file <> None then begin
      Printf.eprintf
        "splay run: --domains N > 1 does not support --churn-script, --churn-trace or \
         --descriptor (churn and the controller stack run on the sequential engine)\n";
      exit 2
    end
  end;
  (* Arm the planes before the platform or Fabric exists: daemon boot and
     deployment are then part of the trace, and partition engines bind
     their clocks to the per-partition recorder states at creation. *)
  Obs_flags.trace_path := obs_trace;
  Obs_flags.metrics_path := metrics_out;
  Obs_flags.metrics_window := metrics_window;
  Obs_flags.arm ();
  if domains = 1 then
    run_sequential app testbed hosts nodes duration lookups churn_script churn_trace speedup seed
      descriptor_file
  else run_parallel ~nodes ~seed ~domains;
  if not (Obs_flags.finish ()) then exit 1

let run_term =
  let app_arg =
    Arg.(value & opt app_conv Pastry & info [ "app"; "a" ] ~docv:"APP" ~doc:"Application to deploy.")
  in
  let testbed =
    Arg.(value & opt testbed_conv Tb_cluster & info [ "testbed"; "t" ] ~docv:"TB" ~doc:"Testbed model.")
  in
  let hosts = Arg.(value & opt int 20 & info [ "hosts" ] ~doc:"Number of testbed hosts.") in
  let nodes = Arg.(value & opt int 50 & info [ "nodes"; "n" ] ~doc:"Instances to deploy.") in
  let duration =
    Arg.(value & opt float 180.0 & info [ "duration"; "d" ] ~doc:"Virtual seconds to run before measuring.")
  in
  let lookups = Arg.(value & opt int 100 & info [ "lookups" ] ~doc:"Lookups to measure (DHT apps).") in
  let churn_script =
    Arg.(value & opt (some file) None & info [ "churn-script" ] ~doc:"Synthetic churn script to run.")
  in
  let churn_trace =
    Arg.(value & opt (some file) None & info [ "churn-trace" ] ~doc:"Availability trace to replay.")
  in
  let speedup = Arg.(value & opt float 1.0 & info [ "speedup" ] ~doc:"Trace speed-up factor.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let descriptor =
    Arg.(
      value
      & opt (some file) None
      & info [ "descriptor" ]
          ~doc:"Job file with a BEGIN SPLAY RESOURCES RESERVATION header (overrides --nodes).")
  in
  let obs_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~docv:"FILE"
          ~doc:
            "Enable the deterministic observability layer and write its JSONL trace (engine, \
             RPC, network and controller spans plus metrics) to $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Enable the metrics plane and write its windowed rollups (splay-metrics/2 JSONL) to \
             $(docv); render with $(b,splay top) $(docv).")
  in
  let metrics_window =
    Arg.(
      value
      & opt (some float) None
      & info [ "metrics-window" ] ~docv:"SECONDS"
          ~doc:"Rollup window width in virtual seconds (default 10).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Partition the run across $(docv) event-loop domains on the conservative windowed \
             parallel engine (currently $(b,--app epidemic) only). $(docv) fixes the schedule; \
             worker domains are clamped to the machine's core count.")
  in
  Term.(
    const run_cmd $ app_arg $ testbed $ hosts $ nodes $ duration $ lookups $ churn_script
    $ churn_trace $ speedup $ seed $ descriptor $ obs_trace $ metrics_out $ metrics_window
    $ domains)

let run_cmd_info = Cmd.info "run" ~doc:"Deploy an application on a simulated testbed and measure it."

(* {1 splay check} *)

let check_cmd list_suites suite seeds jobs base_seed seed_opt nemesis_str no_perturb no_shrink
    trace_dir obs_trace =
  if list_suites then begin
    List.iter
      (fun s -> Printf.printf "%-10s %s\n" s.Check_suite.name s.Check_suite.doc)
      Check_suite.all;
    exit 0
  end;
  let suites =
    match Check_suite.find suite with
    | Ok s -> s
    | Error msg ->
        Printf.eprintf "splay check: %s\n" msg;
        exit 1
  in
  let perturb = not no_perturb in
  match seed_opt with
  | Some seed ->
      (* replay mode: one trial, optionally under an explicit nemesis *)
      let suite =
        match suites with
        | [ s ] -> s
        | _ ->
            Printf.eprintf "splay check: --seed needs a single --suite\n";
            exit 1
      in
      let nemesis =
        match nemesis_str with
        | None -> None
        | Some s -> (
            try Some (Nemesis.parse s)
            with Nemesis.Parse_error m ->
              Printf.eprintf "splay check: %s\n" m;
              exit 1)
      in
      Obs_flags.trace_path := obs_trace;
      Obs_flags.arm ();
      let o = Check_runner.run_one ~suite ~seed ?nemesis ~perturb () in
      print_endline (Check_suite.outcome_to_string o);
      if not (Obs_flags.finish ()) then exit 1;
      if Check_suite.failed o then exit 1
  | None ->
      if nemesis_str <> None then begin
        Printf.eprintf "splay check: --nemesis requires --seed\n";
        exit 1
      end;
      let report =
        Check_runner.sweep ~suites ~seeds ~jobs ~base_seed ~perturb
          ~shrink_failures:(not no_shrink) ?trace_dir ()
      in
      List.iter
        (fun r ->
          Printf.printf "%-10s %d seeds: %s\n" r.Check_runner.r_suite r.Check_runner.r_seeds
            (match r.Check_runner.r_failing with
            | [] -> "ok"
            | f ->
                Printf.sprintf "%d FAILING (seeds %s)" (List.length f)
                  (String.concat ", " (List.map string_of_int f))))
        report.Check_runner.rep_suites;
      List.iter
        (fun f ->
          Printf.printf "\n--- %s seed %d: minimal reproducer ---\n" f.Check_runner.f_suite
            f.Check_runner.f_seed;
          print_endline (Check_suite.outcome_to_string f.Check_runner.f_shrunk);
          if f.Check_runner.f_shrink_steps > 0 then
            Printf.printf "shrunk in %d steps from: %s\n" f.Check_runner.f_shrink_steps
              (Nemesis.to_string f.Check_runner.f_outcome.Check_suite.o_nemesis);
          (match f.Check_runner.f_trace with
          | Some p -> Printf.printf "trace: %s\n" p
          | None -> ());
          Printf.printf "replay: %s\n" f.Check_runner.f_replay)
        report.Check_runner.rep_failures;
      Printf.printf "\n%d trials; %d suites failing\n" report.Check_runner.rep_trials
        (List.length report.Check_runner.rep_failures);
      if Check_runner.failed report then exit 1

let check_term =
  let list_f = Arg.(value & flag & info [ "list" ] ~doc:"List the available suites and exit.") in
  let suite =
    Arg.(
      value & opt string "smoke"
      & info [ "suite"; "s" ] ~docv:"SUITE"
          ~doc:"Suite to check (see --list), or $(b,all) for every suite.")
  in
  let seeds = Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Number of seeds to sweep.") in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Domains to sweep on. The failing-seed set is identical for any value.")
  in
  let base_seed = Arg.(value & opt int 1 & info [ "base-seed" ] ~doc:"First seed of the sweep.") in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Replay one trial with this seed instead of sweeping.")
  in
  let nemesis =
    Arg.(
      value
      & opt (some string) None
      & info [ "nemesis" ] ~docv:"SPEC"
          ~doc:"Fault schedule for the --seed trial (default: the generated one).")
  in
  let no_perturb =
    Arg.(value & flag & info [ "no-perturb" ] ~doc:"Disable event-schedule perturbation.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"Re-run each minimal reproducer under tracing and dump its trace into $(docv).")
  in
  let obs_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"(--seed mode) Write the trial's observability trace to $(docv).")
  in
  Term.(
    const check_cmd $ list_f $ suite $ seeds $ jobs $ base_seed $ seed $ nemesis $ no_perturb
    $ no_shrink $ trace_dir $ obs_trace)

let check_cmd_info =
  Cmd.info "check"
    ~doc:
      "Deterministic simulation testing: sweep seeds over protocol suites under fault nemeses, \
       verify invariants, and shrink failures to minimal reproducers."

(* {1 splay profile} *)

let profile_cmd path initial =
  let script = Script.parse (read_file path) in
  Printf.printf "%-8s %-12s %-10s %s\n" "minute" "population" "joins" "leaves";
  List.iter
    (fun (t, pop, j, l) ->
      Printf.printf "%-8.0f %-12d %-10d %d\n" (t /. 60.0) pop j l)
    (Script.profile script ~bin:60.0 ~initial)

let profile_term =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT") in
  let initial = Arg.(value & opt int 0 & info [ "initial" ] ~doc:"Initial population.") in
  Term.(const profile_cmd $ path $ initial)

let profile_cmd_info =
  Cmd.info "profile" ~doc:"Print the expected population profile of a churn script."

(* {1 splay top} *)

let top_cmd metric k prom slo path =
  let slo =
    match slo with
    | None -> None
    | Some spec -> (
        match String.rindex_opt spec ':' with
        | Some i when i > 0 && i < String.length spec - 1 -> (
            let m = String.sub spec 0 i in
            let thr = String.sub spec (i + 1) (String.length spec - i - 1) in
            match float_of_string_opt thr with
            | Some t -> Some (m, t)
            | None ->
                Printf.eprintf "splay top: --slo threshold %S is not a number\n" thr;
                exit 1)
        | _ ->
            Printf.eprintf "splay top: --slo expects METRIC:THRESHOLD, got %S\n" spec;
            exit 1)
  in
  let m =
    try Metrics_analysis.load (read_file path) with
    | Sys_error msg ->
        Printf.eprintf "splay top: cannot read metrics dump: %s\n" msg;
        exit 1
    | Failure msg ->
        Printf.eprintf "splay top: %s: %s\n" path msg;
        exit 2
  in
  if m.Metrics_analysis.rows = [] then begin
    Printf.eprintf "splay top: no metrics rows in %s (produce one with --metrics-out=FILE)\n" path;
    exit 1
  end;
  if prom then print_string (Metrics_analysis.prometheus m)
  else print_string (Metrics_analysis.render ?metric ~k ?slo m)

let top_term =
  (* [string], not [file]: a missing path must be our clean exit-1 error,
     not cmdliner's exit-124 conversion failure *)
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"METRICS.jsonl") in
  let metric =
    Arg.(
      value
      & opt (some string) None
      & info [ "metric" ] ~docv:"NAME"
          ~doc:
            "Histogram whose per-window percentiles fill the p50/p99/p999 columns (default \
             rpc.latency, else the first histogram in the dump).")
  in
  let k =
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"N" ~doc:"Status-note rows to print (default 5).")
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "Emit the whole-run totals in Prometheus text exposition format instead of the \
             per-window dashboard.")
  in
  let slo =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"METRIC:THRESHOLD"
          ~doc:
            "Add a violation-rate column: the share of $(i,METRIC)'s observations per window \
             (and whole-run) above $(i,THRESHOLD), read from the dump's bucket counts (e.g. \
             rpc.latency:0.25).")
  in
  Term.(const top_cmd $ metric $ k $ prom $ slo $ path)

let top_cmd_info =
  Cmd.info "top"
    ~doc:
      "Render a metrics-plane dump (splay run --metrics-out=FILE): per-window global rates and \
       latency percentiles, cumulative summaries, and splayctl job-status rows."

(* {1 splay serve} *)

module Serve_h = Splay_serve.Harness
module Serve_load = Splay_serve.Load

let serve_cmd target nodes gateways serve_cost rates duration clients keys batching p2c admission
    all_on parts domains jobs seed =
  if rates = [] then begin
    Printf.eprintf "splay serve: --rates expects at least one offered rate\n";
    exit 1
  end;
  let scenario =
    {
      Serve_h.default with
      Serve_h.nodes;
      gateways;
      target;
      serve_cost;
      batching;
      p2c;
      admission;
      load = { Serve_load.default with Serve_load.clients; keys; duration };
    }
  in
  let scenario = if all_on then Serve_h.all_on scenario else scenario in
  let mode = if parts > 1 then Serve_h.Fab { parts; domains } else Serve_h.Seq in
  let step rate = Serve_h.run ~mode scenario ~seed ~rate in
  let results =
    (* a Fabric step owns the worker-domain pool, so the offered-load
       steps only fan out across --jobs in sequential mode *)
    match mode with
    | Serve_h.Seq -> Pool.map ~jobs step rates
    | Serve_h.Fab _ -> List.map step rates
  in
  Printf.printf "%d nodes, %d gateways, %d virtual clients, %s target%s%s\n" scenario.Serve_h.nodes
    (min scenario.Serve_h.gateways scenario.Serve_h.nodes)
    clients
    (match target with Serve_h.Dht -> "dht" | Serve_h.Web -> "web")
    (match mode with
    | Serve_h.Seq -> ""
    | Serve_h.Fab { parts; domains } -> Printf.sprintf ", %d partitions on %d domains" parts domains)
    (let on =
       List.filter_map
         (fun (name, v) -> if v then Some name else None)
         [
           ("batching", scenario.Serve_h.batching);
           ("p2c", scenario.Serve_h.p2c);
           ("admission", scenario.Serve_h.admission);
         ]
     in
     if on = [] then ", baseline" else ", " ^ String.concat "+" on);
  Printf.printf "  %9s %9s %9s %7s %7s %7s %9s %9s %9s %8s %8s\n" "rate" "offered" "ok" "miss"
    "shed" "failed" "p50" "p99" "p999" "sshed" "batched";
  List.iter
    (fun r ->
      Printf.printf "  %9.1f %9d %9d %7d %7d %7d %9.4f %9.4f %9.4f %8d %8d\n" r.Serve_h.r_rate
        r.Serve_h.offered r.Serve_h.ok r.Serve_h.misses r.Serve_h.shed r.Serve_h.failed
        r.Serve_h.p50 r.Serve_h.p99 r.Serve_h.p999 r.Serve_h.server_shed r.Serve_h.batched)
    results

let serve_target_conv = Arg.enum [ ("dht", Serve_h.Dht); ("web", Serve_h.Web) ]

let serve_term =
  let target =
    Arg.(
      value & opt serve_target_conv Serve_h.Dht
      & info [ "target" ] ~docv:"APP" ~doc:"Serving application: $(b,dht) or $(b,web).")
  in
  let nodes = Arg.(value & opt int 1_000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Overlay size.") in
  let gateways =
    Arg.(
      value & opt int Serve_h.default.Serve_h.gateways
      & info [ "gateways" ] ~docv:"N" ~doc:"Nodes accepting client requests.")
  in
  let serve_cost =
    Arg.(
      value & opt float 0.002
      & info [ "serve-cost" ] ~docv:"S" ~doc:"Owner-side service time per request, seconds.")
  in
  let rates =
    Arg.(
      value
      & opt (list float) [ 500.0; 1000.0; 2000.0 ]
      & info [ "rates" ] ~docv:"R,R,..." ~doc:"Offered-load steps, requests/second.")
  in
  let duration =
    Arg.(value & opt float 30.0 & info [ "d"; "duration" ] ~docv:"S" ~doc:"Offered load per step, seconds.")
  in
  let clients =
    Arg.(
      value & opt int 100_000
      & info [ "clients" ] ~docv:"N" ~doc:"Virtual client population (O(1) words each).")
  in
  let keys = Arg.(value & opt int 1_000 & info [ "keys" ] ~docv:"N" ~doc:"Key-space size (Zipf popularity).") in
  let batching = Arg.(value & flag & info [ "batching" ] ~doc:"Coalesce same-key gets at the owner.") in
  let p2c = Arg.(value & flag & info [ "p2c" ] ~doc:"Power-of-two-choices replica selection.") in
  let admission =
    Arg.(value & flag & info [ "admission" ] ~doc:"Token-bucket + SLO-budget shedding at the owner.")
  in
  let all_on = Arg.(value & flag & info [ "all-on" ] ~doc:"Enable batching, p2c and admission together.") in
  let parts =
    Arg.(
      value & opt int 1
      & info [ "parts" ] ~docv:"N"
          ~doc:"Partition the deployment for the parallel engine ($(b,1) = sequential).")
  in
  let domains =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains for a partitioned run.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N" ~doc:"Run offered-load steps on this many domains (sequential mode).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.") in
  Term.(
    const serve_cmd $ target $ nodes $ gateways $ serve_cost $ rates $ duration $ clients $ keys
    $ batching $ p2c $ admission $ all_on $ parts $ domains $ jobs $ seed)

let serve_cmd_info =
  Cmd.info "serve"
    ~doc:
      "Open-loop serving benchmark: drive a simulated overlay's DHT store or web cache with \
       Zipf-popularity traffic from compact virtual clients and print coordinated-omission-free \
       latency percentiles per offered-load step."

(* {1 splay live ...} *)

module Live = Splay_live

(* The forked daemon binary normally sits next to the CLI in _build. *)
let default_splayd () =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "splayd.exe" in
  if Sys.file_exists beside then beside else "splayd"

let live_deploy app nodes daemons lookups m descriptor_file out_dir duration deadline seed
    no_trace metrics diff_sim tolerance splayd_path kvs =
  Live.Live_apps.init ();
  let params =
    ("m", string_of_int m)
    :: ("lookups", string_of_int lookups)
    :: ("seed", string_of_int seed)
    :: List.map
         (fun kv ->
           match String.index_opt kv '=' with
           | Some i ->
               (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
           | None ->
               Printf.eprintf "splay live: --param expects KEY=VALUE, got %S\n" kv;
               exit 2)
         kvs
  in
  let desc =
    match descriptor_file with
    | Some path -> Descriptor.parse (read_file path)
    | None ->
        { Descriptor.default with Descriptor.bootstrap = Descriptor.All; nb_splayd = nodes }
  in
  let cfg =
    {
      Live.Ctl.default_cfg with
      Live.Ctl.c_app = app;
      c_params = params;
      c_daemons = daemons;
      c_desc = desc;
      c_out_dir = out_dir;
      c_splayd = (match splayd_path with Some p -> p | None -> default_splayd ());
      c_trace = not no_trace;
      c_metrics = metrics;
      c_duration = duration;
      c_deadline = deadline;
      c_seed = seed;
    }
  in
  Printf.printf "deploying %d x %s on %d live splayd processes (out: %s)...\n%!"
    desc.Descriptor.nb_splayd app daemons out_dir;
  let o = Live.Ctl.run cfg in
  let sel = o.Live.Ctl.r_select in
  Printf.printf "select: need %d instances; %d daemons alive, %d dead\n"
    desc.Descriptor.nb_splayd sel.Deploy.sel_alive sel.Deploy.sel_dead;
  Printf.printf "calls: %s\n"
    (String.concat ", " (List.map (fun (p, n) -> Printf.sprintf "%d %s" n p) o.Live.Ctl.r_calls));
  Printf.printf "heartbeats: %d of %d daemons\n"
    (List.length (List.filter (fun (_, n) -> n > 0) o.Live.Ctl.r_heartbeats))
    (List.length o.Live.Ctl.r_heartbeats);
  Printf.printf "collected: %d log records, %d contract reports\n" o.Live.Ctl.r_log_records
    (List.length o.Live.Ctl.r_reports);
  (match o.Live.Ctl.r_trace_file with
  | Some p -> Printf.printf "trace: %s (analyze with `splay trace %s`)\n" p p
  | None -> ());
  (match o.Live.Ctl.r_metrics_file with
  | Some p -> Printf.printf "metrics: %s (render with `splay top %s`)\n" p p
  | None -> ());
  List.iter (fun f -> Printf.printf "FAILURE: %s\n" f) o.Live.Ctl.r_failures;
  let violations =
    if not diff_sim then []
    else begin
      Printf.printf "running simulated twin for the contract diff...\n%!";
      match Live.Contract.run_sim ~seed ~n:desc.Descriptor.nb_splayd ~app ~params () with
      | Error msg -> [ Printf.sprintf "sim twin failed: %s" msg ]
      | Ok sim_reports ->
          let sim = Live.Contract.summary_of_reports sim_reports in
          let live = Live.Contract.summary_of_reports o.Live.Ctl.r_reports in
          Live.Contract.diff ~tolerance ~sim ~live ()
    end
  in
  if diff_sim then begin
    List.iter (fun v -> Printf.printf "CONTRACT VIOLATION: %s\n" v) violations;
    Printf.printf "contract: %s\n"
      (if violations = [] then "OK (sim and live invariants match)"
       else Printf.sprintf "%d violations" (List.length violations))
  end;
  if (not o.Live.Ctl.r_ok) || violations <> [] then exit 1

let live_status dir =
  match Live.Ctl.status dir with
  | exception Sys_error msg ->
      Printf.eprintf "splay live status: %s\n" msg;
      exit 1
  | (ctl_pid, ctl_alive), daemons ->
      Printf.printf "controller: pid %d %s\n" ctl_pid (if ctl_alive then "alive" else "dead");
      List.iter
        (fun (host, pid, alive, log) ->
          Printf.printf "splayd %-3d pid %-7d %-5s log %s\n" host pid
            (if alive then "alive" else "dead")
            log)
        daemons;
      if ctl_alive || List.exists (fun (_, _, alive, _) -> alive) daemons then exit 0
      else exit 3

let live_kill dir =
  match Live.Ctl.kill dir with
  | exception Sys_error msg ->
      Printf.eprintf "splay live kill: %s\n" msg;
      exit 1
  | escalated ->
      if escalated > 0 then
        Printf.printf "killed (SIGKILL escalation for %d processes)\n" escalated
      else Printf.printf "killed\n"

let live_cmds =
  let dir_arg = Arg.(value & pos 0 string "_live" & info [] ~docv:"DIR") in
  let deploy =
    let app_arg =
      Arg.(value & opt string "chord" & info [ "app"; "a" ] ~docv:"APP" ~doc:"Registered live application.")
    in
    let nodes = Arg.(value & opt int 10 & info [ "nodes"; "n" ] ~doc:"Instances to deploy.") in
    let daemons =
      Arg.(value & opt int 10 & info [ "daemons" ] ~doc:"splayd processes to fork (instances are spread across them).")
    in
    let lookups = Arg.(value & opt int 20 & info [ "lookups" ] ~doc:"Lookups the driver instance issues.") in
    let m = Arg.(value & opt int 16 & info [ "m" ] ~doc:"Chord identifier bits.") in
    let descriptor =
      Arg.(
        value
        & opt (some file) None
        & info [ "descriptor" ]
            ~doc:"Job file with a BEGIN SPLAY RESOURCES RESERVATION header (overrides --nodes).")
    in
    let out_dir =
      Arg.(value & opt string "_live" & info [ "out-dir" ] ~docv:"DIR" ~doc:"Run directory (daemon logs, artifacts).")
    in
    let duration =
      Arg.(
        value & opt float 0.0
        & info [ "duration"; "d" ]
            ~doc:"Wall-clock seconds to run; 0 runs until the application reports done.")
    in
    let deadline =
      Arg.(value & opt float 120.0 & info [ "deadline" ] ~doc:"Hard wall-clock budget for the whole run.")
    in
    let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deployment seed.") in
    let no_trace =
      Arg.(value & flag & info [ "no-trace" ] ~doc:"Skip collecting the merged observability trace.")
    in
    let metrics =
      Arg.(value & flag & info [ "metrics" ] ~doc:"Collect the merged metrics-plane dump (splay top).")
    in
    let diff_sim =
      Arg.(
        value & flag
        & info [ "diff-sim" ]
            ~doc:"Run the same deployment on the simulated backend and diff the structural invariants.")
    in
    let tolerance =
      Arg.(value & opt float 0.5 & info [ "tolerance" ] ~doc:"Relative message-count tolerance for --diff-sim.")
    in
    let splayd =
      Arg.(
        value
        & opt (some string) None
        & info [ "splayd" ] ~docv:"PATH" ~doc:"splayd executable (default: next to this binary).")
    in
    let param =
      Arg.(
        value & opt_all string []
        & info [ "param" ] ~docv:"KEY=VALUE" ~doc:"Extra application parameter (repeatable).")
    in
    Cmd.v
      (Cmd.info "deploy" ~doc:"Fork real splayd daemons and run an application live over TCP.")
      Term.(
        const live_deploy $ app_arg $ nodes $ daemons $ lookups $ m $ descriptor $ out_dir $ duration
        $ deadline $ seed $ no_trace $ metrics $ diff_sim $ tolerance $ splayd $ param)
  in
  let status =
    Cmd.v
      (Cmd.info "status" ~doc:"Report controller and daemon liveness for a live run directory.")
      Term.(const live_status $ dir_arg)
  in
  let kill =
    Cmd.v
      (Cmd.info "kill" ~doc:"Terminate a live run's recorded processes (SIGTERM, then SIGKILL).")
      Term.(const live_kill $ dir_arg)
  in
  Cmd.group
    (Cmd.info "live"
       ~doc:
         "Live execution backend: deploy applications as real OS processes over real sockets, \
          inspect and kill running deployments.")
    [ deploy; status; kill ]

(* {1 splay trace ...} *)

let write_out out data =
  match out with
  | None -> print_string data
  | Some path ->
      let oc = open_out path in
      output_string oc data;
      close_out oc;
      Printf.eprintf "wrote %s\n" path

let trace_gen concurrent duration seed out =
  let rng = Rng.create seed in
  let t = Trace.synthetic_overnet ~concurrent ~duration rng in
  write_out out (Trace.to_string t ^ "\n")

let trace_info path =
  let t = Trace.of_string (read_file path) in
  Printf.printf "events:      %d\n" (List.length t);
  Printf.printf "duration:    %s\n" (Misc.duration_to_string (Trace.duration t));
  Printf.printf "initial:     %d nodes\n" (Trace.population t ~at:0.0);
  Printf.printf "peak churn:  %.1f%% of the population per minute\n"
    (100.0 *. Trace.churn_rate t ~bin:60.0);
  let series = Trace.population_series t ~bin:(Trace.duration t /. 10.0) in
  List.iter (fun (time, pop) -> Printf.printf "  t=%-8.0f %d nodes\n" time pop) series

let trace_speedup factor path out =
  let t = Trace.of_string (read_file path) in
  write_out out (Trace.to_string (Transform.speedup factor t) ^ "\n")

let trace_crop from until path out =
  let t = Trace.of_string (read_file path) in
  write_out out (Trace.to_string (Transform.crop ~from ~until t) ^ "\n")

let trace_amplify factor path seed out =
  let t = Trace.of_string (read_file path) in
  let rng = Rng.create seed in
  write_out out (Trace.to_string (Transform.renumber (Transform.amplify rng factor t)) ^ "\n")

(* Offline analysis of an Obs JSONL dump (produced by `splay run --trace`
   or the bench harness's --obs-trace=FILE). *)
let trace_analyze critical root_name = function
  | None ->
      Printf.eprintf "splay trace: missing TRACE.jsonl argument (or subcommand; see --help)\n";
      exit 2
  | Some path ->
      let t =
        try Trace_analysis.load (read_file path)
        with Sys_error m ->
          Printf.eprintf "splay trace: cannot read trace: %s\n" m;
          exit 1
      in
      if t.Trace_analysis.spans = [] then begin
        Printf.eprintf
          "splay trace: no complete spans in %s (empty or metrics-only dump? analyze those with \
           splay top)\n"
          path;
        exit 1
      end;
      let root =
        match root_name with
        | None -> None
        | Some nm -> (
            match Trace_analysis.slowest_root ~name:nm t with
            | Some _ as r -> r
            | None ->
                Printf.eprintf "splay trace: no span named %S in %s\n" nm path;
                exit 1)
      in
      if critical then Trace_analysis.print_critical_path ?root t
      else Trace_analysis.print_summary t

let out_arg = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")

let trace_cmds =
  let gen =
    Cmd.v (Cmd.info "gen" ~doc:"Generate an Overnet-like availability trace.")
      Term.(
        const trace_gen
        $ Arg.(value & opt int 600 & info [ "concurrent" ] ~doc:"Average online population.")
        $ Arg.(value & opt float 3000.0 & info [ "duration" ] ~doc:"Trace length (seconds).")
        $ Arg.(value & opt int 42 & info [ "seed" ])
        $ out_arg)
  in
  let info_c =
    Cmd.v (Cmd.info "info" ~doc:"Summarize a trace.")
      Term.(const trace_info $ Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"))
  in
  let speedup =
    Cmd.v (Cmd.info "speedup" ~doc:"Compress a trace in time.")
      Term.(
        const trace_speedup
        $ Arg.(required & pos 0 (some float) None & info [] ~docv:"FACTOR")
        $ Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE")
        $ out_arg)
  in
  let crop =
    Cmd.v (Cmd.info "crop" ~doc:"Keep one time window of a trace, rebased to 0.")
      Term.(
        const trace_crop
        $ Arg.(required & pos 0 (some float) None & info [] ~docv:"FROM")
        $ Arg.(required & pos 1 (some float) None & info [] ~docv:"UNTIL")
        $ Arg.(required & pos 2 (some file) None & info [] ~docv:"TRACE")
        $ out_arg)
  in
  let amplify =
    Cmd.v (Cmd.info "amplify" ~doc:"Scale a trace's churn volume, keeping its statistics.")
      Term.(
        const trace_amplify
        $ Arg.(required & pos 0 (some float) None & info [] ~docv:"FACTOR")
        $ Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE")
        $ Arg.(value & opt int 42 & info [ "seed" ])
        $ out_arg)
  in
  (* `splay trace FILE` analyzes an observability JSONL dump (the
     `run --trace FILE` output); the argv shim in [main] routes a FILE
     first argument here so the subcommand name can stay implicit. *)
  let analyze_term =
    (* [string], not [file]: a missing path must be our clean exit-1 usage
       error, not cmdliner's exit-124 conversion failure *)
    let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"TRACE.jsonl") in
    let critical =
      Arg.(
        value & flag
        & info [ "critical-path" ]
            ~doc:"Print the per-hop latency breakdown along the critical path instead of the summary tables.")
    in
    let root =
      Arg.(
        value
        & opt (some string) None
        & info [ "root" ] ~docv:"NAME"
            ~doc:"Anchor the critical path at the slowest span named $(docv) (default: the slowest rpc.call root).")
    in
    Term.(const trace_analyze $ critical $ root $ file)
  in
  let analyze =
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Analyze an observability JSONL trace (summary tables, critical path).")
      analyze_term
  in
  Cmd.group ~default:analyze_term
    (Cmd.info "trace"
       ~doc:
         "Analyze an observability JSONL trace (causal DAG, critical path), or generate and \
          transform availability traces.")
    [ analyze; gen; info_c; speedup; crop; amplify ]

let trace_subcommands = [ "analyze"; "gen"; "info"; "speedup"; "crop"; "amplify" ]

let () =
  (* cmdliner command groups reject positionals in subcommand position, so
     `splay trace run.jsonl` needs the implicit `analyze` spliced in. *)
  let argv =
    let a = Sys.argv in
    if
      Array.length a >= 3
      && a.(1) = "trace"
      && (not (List.mem a.(2) trace_subcommands))
      && String.length a.(2) > 0
      && a.(2).[0] <> '-'
    then Array.concat [ [| a.(0); a.(1); "analyze" |]; Array.sub a 2 (Array.length a - 2) ]
    else a
  in
  (* Bare, empty or non-positive --jobs/--domains values exit 2 with a
     one-line error instead of cmdliner's conversion dump — silently
     falling back to a default would run a different schedule than the
     caller asked for (same strictness as the bench harness's output
     flags). *)
  (let bad ctx got =
     Printf.eprintf "splay: %s expects a positive integer, got %s\n" ctx got;
     exit 2
   in
   let check ctx = function
     | None -> bad ctx "nothing"
     | Some s -> (
         match int_of_string_opt s with
         | Some n when n >= 1 -> ()
         | _ -> bad ctx (Printf.sprintf "%S" s))
   in
   let n = Array.length argv in
   Array.iteri
     (fun i a ->
       match a with
       | "--jobs" | "--domains" -> check a (if i + 1 < n then Some argv.(i + 1) else None)
       | _ ->
           List.iter
             (fun pfx ->
               let lp = String.length pfx in
               if String.length a >= lp && String.sub a 0 lp = pfx then
                 check (String.sub a 0 (lp - 1)) (Some (String.sub a lp (String.length a - lp))))
             [ "--jobs="; "--domains=" ])
     argv);
  let root =
    Cmd.group
      (Cmd.info "splay" ~version:"1.0" ~doc:"SPLAY for OCaml — deploy and evaluate distributed systems.")
      [
        Cmd.v run_cmd_info run_term;
        Cmd.v check_cmd_info check_term;
        Cmd.v profile_cmd_info profile_term;
        Cmd.v top_cmd_info top_term;
        Cmd.v serve_cmd_info serve_term;
        live_cmds;
        trace_cmds;
      ]
  in
  exit (Cmd.eval ~argv root)
