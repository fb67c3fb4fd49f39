(* Figure 7: Pastry for SPLAY against FreePastry on the 11-machine cluster.
   (a) lookup-delay CDF at 980 nodes; (b) FreePastry delay percentiles as
   density grows (blow-up past ~1600, unable past ~1980); (c) SPLAY Pastry
   delay percentiles up to 5,500 nodes with no blow-up. *)

open Splay
module Apps = Splay_apps
module Baselines = Splay_baselines

let cluster_hosts = 11

let run_overlay ~seed ~daemon_config ~app_config ~n ~lookups =
  Common.with_platform ~seed ?daemon_config (Platform.Cluster cluster_hosts) (fun p ->
      let ctl = Platform.controller p in
      let config = { app_config with Apps.Pastry.join_delay_per_position = 0.05 } in
      let _dep, nodes = Common.deploy_pastry ~config ctl ~n in
      Env.sleep ((Float.of_int n *. 0.05) +. (5.0 *. 30.0));
      let rng = Rng.split (Engine.rng (Platform.engine p)) in
      let delays, hops, failures =
        Common.measure_pastry_lookups ~rng
          ~keyspace:(Splay_runtime.Misc.pow2 config.Apps.Pastry.bits)
          ~count:lookups !nodes
      in
      ignore hops;
      (delays, failures))

let run_a () =
  Report.section "Figure 7(a) — delay CDF, 980 nodes on the cluster";
  let n = Common.pick ~quick:490 ~full:980 in
  let lookups = Common.pick ~quick:800 ~full:2000 in
  let (splay_d, splay_f), (fp_d, fp_f) =
    (* the two overlays are independent trials: fan them out *)
    match
      Common.par_map
        (fun (daemon_config, app_config) -> run_overlay ~seed:7 ~daemon_config ~app_config ~n ~lookups)
        [
          (None, Apps.Pastry.default_config);
          (Some Baselines.Freepastry.daemon_config, Baselines.Freepastry.app_config);
        ]
    with
    | [ splay; fp ] -> (splay, fp)
    | _ -> assert false
  in
  Report.table
    ~header:[ "percentile"; "Pastry (SPLAY) ms"; "FreePastry (Java) ms" ]
    (List.map
       (fun p ->
         [
           Report.float_cell ~decimals:0 p;
           Common.ms (Dist.percentile splay_d p);
           Common.ms (Dist.percentile fp_d p);
         ])
       [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0 ]);
  Report.kvf "failures" "splay %d, freepastry %d" splay_f fp_f;
  Common.shape_check "SPLAY delays well below FreePastry"
    (Dist.percentile splay_d 50.0 < Dist.percentile fp_d 50.0)

let percentile_row n d =
  string_of_int n :: List.map (fun p -> Common.ms (Dist.percentile d p)) Common.pcts

let run_b () =
  Report.section "Figure 7(b) — FreePastry: delay percentiles vs node count";
  let sweep = Common.pick ~quick:[ 220; 880; 1650; 1980 ] ~full:[ 220; 550; 1100; 1650; 1980 ] in
  let lookups = Common.pick ~quick:300 ~full:800 in
  let rows =
    Common.par_map
      (fun n ->
        let d, f =
          run_overlay ~seed:(40 + n)
            ~daemon_config:(Some Baselines.Freepastry.daemon_config)
            ~app_config:Baselines.Freepastry.app_config ~n ~lookups
        in
        (n, d, f))
      sweep
  in
  Report.table
    ~header:("nodes" :: Report.percentile_header Common.pcts @ [ "(ms)" ])
    (List.map (fun (n, d, _) -> percentile_row n d) rows);
  let med n' = List.find (fun (n, _, _) -> n = n') rows |> fun (_, d, _) -> Dist.percentile d 50.0 in
  let first = List.hd sweep and last = List.nth sweep (List.length sweep - 1) in
  Common.shape_check
    (Printf.sprintf "delays blow up at high density (median %.0f ms -> %.0f ms)"
       (1000.0 *. med first) (1000.0 *. med last))
    (med last > 3.0 *. med first)

let run_c () =
  Report.section "Figure 7(c) — Pastry for SPLAY: delay percentiles vs node count";
  let sweep = Common.pick ~quick:[ 550; 1650; 3300 ] ~full:[ 550; 1650; 2750; 4400; 5500 ] in
  let lookups = Common.pick ~quick:300 ~full:800 in
  let rows =
    Common.par_map
      (fun n ->
        let d, f =
          run_overlay ~seed:(60 + n) ~daemon_config:None ~app_config:Apps.Pastry.default_config
            ~n ~lookups
        in
        (n, d, f))
      sweep
  in
  Report.table
    ~header:("nodes" :: Report.percentile_header Common.pcts @ [ "(ms)" ])
    (List.map (fun (n, d, _) -> percentile_row n d) rows);
  let med (_, d, _) = Dist.percentile d 50.0 in
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  Common.shape_check
    (Printf.sprintf "no blow-up as density grows (median %.0f ms -> %.0f ms)"
       (1000.0 *. med first) (1000.0 *. med last))
    (med last < 3.0 *. Float.max (med first) 0.002)

let run () =
  run_a ();
  run_b ();
  run_c ()
