(* Figure 9: Pastry on PlanetLab, on ModelNet, and in a mixed deployment
   spanning both testbeds at once (500 + 500 in the paper). The mixed
   curve must sit between the two pure curves. *)

open Splay
module Apps = Splay_apps

let run_one ~seed spec ~n ~lookups =
  Common.with_platform ~seed spec (fun p ->
      let ctl = Platform.controller p in
      let config = { Apps.Pastry.default_config with join_delay_per_position = 0.1 } in
      let _dep, nodes = Common.deploy_pastry ~config ctl ~n in
      Env.sleep ((Float.of_int n *. 0.1) +. 150.0);
      let rng = Rng.split (Engine.rng (Platform.engine p)) in
      let delays, _, failures =
        Common.measure_pastry_lookups ~rng ~keyspace:(Splay_runtime.Misc.pow2 32) ~count:lookups
          !nodes
      in
      (delays, failures))

let run () =
  Report.section "Figure 9 — Pastry on PlanetLab, ModelNet, and mixed";
  let n = Common.pick ~quick:300 ~full:1000 in
  let lookups = Common.pick ~quick:400 ~full:1500 in
  let half = n / 2 in
  let pl, _ = run_one ~seed:91 (Platform.Planetlab (n + 20)) ~n ~lookups in
  let mn, _ = run_one ~seed:92 (Platform.Modelnet { hosts = max 1100 n; bandwidth = None }) ~n ~lookups in
  let mixed, _ =
    run_one ~seed:93 (Platform.Mixed { planetlab = half + 10; modelnet = half + 10 }) ~n ~lookups
  in
  Report.table
    ~header:[ "percentile"; "PlanetLab (s)"; "ModelNet (s)"; "Mixed (s)" ]
    (List.map
       (fun p ->
         [
           Report.float_cell ~decimals:0 p;
           Report.float_cell ~decimals:3 (Dist.percentile pl p);
           Report.float_cell ~decimals:3 (Dist.percentile mn p);
           Report.float_cell ~decimals:3 (Dist.percentile mixed p);
         ])
       [ 10.0; 25.0; 50.0; 75.0; 90.0 ]);
  let m50 = Dist.percentile mixed 50.0
  and pl50 = Dist.percentile pl 50.0
  and mn50 = Dist.percentile mn 50.0 in
  let lo = Float.min pl50 mn50 and hi = Float.max pl50 mn50 in
  Report.kvf "medians" "planetlab %.3f s, modelnet %.3f s, mixed %.3f s" pl50 mn50 m50;
  Common.shape_check "mixed deployment sits between the pure testbeds"
    (m50 >= lo *. 0.8 && m50 <= hi *. 1.3)
