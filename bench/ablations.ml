(* Ablations for the design choices DESIGN.md calls out:
   - abl-superset: sensitivity of deployment time to the 125% default
   - abl-leafset: base Chord vs fault-tolerant Chord under failures
   - abl-proximity: Pastry with and without locality-aware tables
   - abl-stagger: staggered vs massive join in Chord *)

open Splay
module Apps = Splay_apps

let noop (_ : Env.t) = ()

let superset () =
  Report.section "Ablation — the 125% superset default";
  let daemons = Common.pick ~quick:200 ~full:450 in
  let n = Common.pick ~quick:100 ~full:200 in
  let rows =
    Common.with_platform ~seed:21 (Platform.Planetlab daemons) (fun p ->
        let ctl = Platform.controller p in
        let eng = Platform.engine p in
        List.map
          (fun superset ->
            let t0 = Engine.now eng in
            let dep =
              Controller.deploy ctl ~superset ~register_timeout:10.0 ~name:"noop" ~main:noop
                (Descriptor.make n)
            in
            let dt = Engine.now eng -. t0 in
            let probes = int_of_float (Float.ceil (Float.of_int n *. superset)) in
            Controller.undeploy dep;
            Env.sleep 30.0;
            (superset, dt, probes))
          [ 1.0; 1.1; 1.25; 1.5; 2.0; 3.0 ])
  in
  Report.table
    ~header:[ "superset"; "deploy time (s)"; "register messages (≈)" ]
    (List.map
       (fun (s, dt, probes) ->
         [ Printf.sprintf "%.0f%%" (100.0 *. s); Report.float_cell ~decimals:2 dt; string_of_int probes ])
       rows);
  let time_of s = let _, dt, _ = List.find (fun (x, _, _) -> x = s) rows in dt in
  Common.shape_check "over-provisioning pays: 125% faster than 100%"
    (time_of 1.25 < time_of 1.0);
  Report.kv "takeaway"
    "beyond ~150% the returns flatten while the register traffic keeps growing \
     — the paper's 125% default sits at the knee"

let leafset () =
  Report.section "Ablation — base Chord vs fault-tolerant Chord under failures";
  let n = Common.pick ~quick:40 ~full:100 in
  let kill_fraction = 4 in
  let run_ft () =
    Common.with_platform ~seed:22 (Platform.Cluster 11) (fun p ->
        let ctl = Platform.controller p in
        let nodes = ref [] in
        let config =
          { Apps.Chord_ft.default_config with m = 20; join_delay_per_position = 0.2; rpc_timeout = 5.0 }
        in
        let dep =
          Controller.deploy ctl ~name:"chord-ft"
            ~main:(Apps.Chord_ft.app ~config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
        in
        Env.sleep ((Float.of_int n *. 0.2) +. 120.0);
        List.iteri
          (fun i (_, a, _) -> if i mod kill_fraction = 0 then Controller.crash_node dep a)
          (Controller.live_members dep);
        Env.sleep 60.0;
        let live = List.filter (fun c -> not (Apps.Chord_ft.is_stopped c)) !nodes in
        let rng = Rng.split (Engine.rng (Platform.engine p)) in
        let fails = ref 0 and total = 100 in
        for _ = 1 to total do
          let origin = Rng.pick_list rng live in
          match Apps.Chord_ft.lookup origin (Rng.int rng (1 lsl 20)) with
          | Some _ -> ()
          | None -> incr fails
        done;
        100.0 *. Float.of_int !fails /. Float.of_int total)
  in
  let run_base () =
    Common.with_platform ~seed:22 (Platform.Cluster 11) (fun p ->
        let ctl = Platform.controller p in
        let nodes = ref [] in
        let config =
          { Apps.Chord.default_config with m = 20; join_delay_per_position = 0.2 }
        in
        let dep =
          Controller.deploy ctl ~name:"chord"
            ~main:(Apps.Chord.app ~config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
        in
        Env.sleep ((Float.of_int n *. 0.2) +. 120.0);
        List.iteri
          (fun i (_, a, _) -> if i mod kill_fraction = 0 then Controller.crash_node dep a)
          (Controller.live_members dep);
        Env.sleep 60.0;
        let live = List.filter (fun c -> not (Apps.Chord.is_stopped c)) !nodes in
        let rng = Rng.split (Engine.rng (Platform.engine p)) in
        let fails = ref 0 and total = 100 in
        for _ = 1 to total do
          let origin = Rng.pick_list rng live in
          (* base Chord has 2-minute RPC timeouts and no rerouting: bound
             the experiment by treating slow lookups as failures, as a
             client would *)
          let eng = Platform.engine p in
          let t0 = Engine.now eng in
          (match Apps.Chord.lookup origin (Rng.int rng (1 lsl 20)) with
          | Some _ when Engine.now eng -. t0 < 30.0 -> ()
          | _ -> incr fails)
        done;
        100.0 *. Float.of_int !fails /. Float.of_int total)
  in
  let ft, base =
    match Common.par_map (fun f -> f ()) [ run_ft; run_base ] with
    | [ ft; base ] -> (ft, base)
    | _ -> assert false
  in
  Report.table
    ~header:[ "variant"; "failed lookups (%) after 25% of nodes crash" ]
    [
      [ "Chord base (58 LoC)"; Report.float_cell ~decimals:1 base ];
      [ "Chord FT + leafset (100 LoC)"; Report.float_cell ~decimals:1 ft ];
    ];
  Common.shape_check "the 42 extra lines buy robustness" (ft < base)

let proximity () =
  Report.section "Ablation — Pastry locality-aware routing tables";
  let n = Common.pick ~quick:80 ~full:200 in
  let run prox =
    Common.with_platform ~seed:23 (Platform.Planetlab (n + 20)) (fun p ->
        let ctl = Platform.controller p in
        let config =
          { Apps.Pastry.default_config with proximity = prox; join_delay_per_position = 0.1 }
        in
        let _dep, nodes = Common.deploy_pastry ~config ctl ~n in
        Env.sleep ((Float.of_int n *. 0.1) +. 200.0);
        let rng = Rng.split (Engine.rng (Platform.engine p)) in
        let delays, _, _ =
          Common.measure_pastry_lookups ~rng ~keyspace:(Splay_runtime.Misc.pow2 32)
            ~count:(Common.pick ~quick:300 ~full:1000)
            !nodes
        in
        Dist.percentile delays 50.0)
  in
  let with_prox, without =
    match Common.par_map run [ true; false ] with
    | [ w; wo ] -> (w, wo)
    | _ -> assert false
  in
  Report.table
    ~header:[ "routing tables"; "median lookup delay (ms)" ]
    [
      [ "proximity-aware"; Common.ms with_prox ];
      [ "proximity-blind"; Common.ms without ];
    ];
  Common.shape_check "locality-aware tables reduce lookup delay" (with_prox < without)

let stagger () =
  Report.section "Ablation — staggered vs massive join (Chord bootstrap)";
  let n = Common.pick ~quick:30 ~full:60 in
  let run delay =
    Common.with_platform ~seed:24 (Platform.Cluster 11) (fun p ->
        let ctl = Platform.controller p in
        let nodes = ref [] in
        let config =
          { Apps.Chord.default_config with m = 20; join_delay_per_position = delay; stabilize_interval = 2.0 }
        in
        ignore
          (Controller.deploy ctl ~name:"chord"
             ~main:(Apps.Chord.app ~config ~register:(fun c -> nodes := c :: !nodes))
             (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
        Env.sleep ((Float.of_int n *. delay) +. 240.0);
        let ring = Apps.Chord.ring_of !nodes in
        (List.length ring, List.length !nodes))
  in
  let (staggered_ring, total1), (massive_ring, total2) =
    match Common.par_map run [ 1.0; 0.0 ] with
    | [ s; m ] -> (s, m)
    | _ -> assert false
  in
  Report.table
    ~header:[ "join strategy"; "nodes on the main ring"; "nodes deployed" ]
    [
      [ "staggered (1 s apart)"; string_of_int staggered_ring; string_of_int total1 ];
      [ "massive (all at once)"; string_of_int massive_ring; string_of_int total2 ];
    ];
  Common.shape_check "staggered join forms one complete ring" (staggered_ring = total1);
  Report.kv "takeaway"
    "a massive join eventually converges too, but staggering makes experiments \
     reproducible — the reason the paper's deployment code sleeps by position"

let vivaldi () =
  Report.section "Ablation — Vivaldi network coordinates (latency prediction)";
  let n = Common.pick ~quick:30 ~full:60 in
  let run dimensions =
    Common.with_platform ~seed:25 (Platform.Planetlab n) (fun p ->
        let ctl = Platform.controller p in
        let nodes = ref [] in
        let config = { Apps.Vivaldi.default_config with dimensions; period = 2.0 } in
        ignore
          (Controller.deploy ctl ~name:"vivaldi"
             ~main:(Apps.Vivaldi.app ~config ~register:(fun v -> nodes := v :: !nodes))
             (Descriptor.make ~bootstrap:Descriptor.All n));
        let snapshot () =
          let arr = Array.of_list !nodes in
          let errs = Dist.create () in
          let len = Array.length arr in
          for i = 0 to len - 1 do
            for j = i + 1 to len - 1 do
              let predicted =
                Apps.Vivaldi.distance
                  (Apps.Vivaldi.coordinate arr.(i))
                  (Apps.Vivaldi.coordinate arr.(j))
              in
              let actual =
                Net.base_rtt (Platform.net p)
                  (Apps.Vivaldi.addr arr.(i)).Addr.host
                  (Apps.Vivaldi.addr arr.(j)).Addr.host
              in
              Dist.add errs (Float.abs (predicted -. actual) /. actual)
            done
          done;
          Dist.percentile errs 50.0
        in
        List.map
          (fun t ->
            let target = Float.of_int t in
            let now = Platform.now p in
            if target > now then Env.sleep (target -. now);
            (t, snapshot ()))
          [ 30; 120; 300; 600 ])
  in
  let d3, d2 =
    match Common.par_map run [ 3; 2 ] with
    | [ d3; d2 ] -> (d3, d2)
    | _ -> assert false
  in
  Report.table
    ~header:[ "probe time (s)"; "median rel. error, 3-d (%)"; "2-d (%)" ]
    (List.map2
       (fun (t, e3) (_, e2) ->
         [
           string_of_int t;
           Report.float_cell ~decimals:1 (100.0 *. e3);
           Report.float_cell ~decimals:1 (100.0 *. e2);
         ])
       d3 d2);
  let final3 = snd (List.nth d3 3) and first3 = snd (List.hd d3) in
  Common.shape_check "coordinates converge over time" (final3 < first3);
  Common.shape_check
    (Printf.sprintf "converged predictions useful (median error %.0f%%)" (100.0 *. final3))
    (final3 < 0.40)

let partition () =
  Report.section "Ablation — WAN partition and heal (the Fig. 10 motivation, explicitly)";
  let n = Common.pick ~quick:100 ~full:400 in
  let rows =
    Common.with_platform ~seed:26 (Platform.Cluster 10) (fun p ->
        let ctl = Platform.controller p in
        let net = Platform.net p in
        let config =
          { Apps.Pastry.default_config with join_delay_per_position = 0.05; rpc_timeout = 3.0; stabilize_interval = 2.0 }
        in
        let _dep, nodes = Common.deploy_pastry ~config ctl ~n in
        Env.sleep ((Float.of_int n *. 0.05) +. 120.0);
        let rng = Rng.split (Engine.rng (Platform.engine p)) in
        (* a lookup fails if it errors out OR lands on the wrong owner:
           during a split, each side happily answers with its local closest
           node, which is exactly the inconsistency the figure is about *)
        let modulus = Splay_runtime.Misc.pow2 32 in
        let ring_dist a b =
          let cw = (b - a + modulus) mod modulus in
          min cw (modulus - cw)
        in
        let failure_rate count =
          let fails = ref 0 in
          for _ = 1 to count do
            let live = List.filter (fun x -> not (Apps.Pastry.is_stopped x)) !nodes in
            let origin = Rng.pick_list rng live in
            let key = Rng.int rng modulus in
            let true_owner =
              List.fold_left
                (fun best x ->
                  if ring_dist (Apps.Pastry.id x) key < ring_dist best key then Apps.Pastry.id x
                  else best)
                (Apps.Pastry.id (List.hd live))
                live
            in
            match Apps.Pastry.lookup origin key with
            | Some (owner, _) when owner.Apps.Node.id = true_owner -> ()
            | Some _ | None -> incr fails
          done;
          100.0 *. Float.of_int !fails /. Float.of_int count
        in
        let before = failure_rate 60 in
        (* split the 10 hosts 5/5: every instance keeps running but cannot
           reach the other side *)
        Net.set_partition net (fun h -> if h < 5 then 0 else 1);
        Env.sleep 30.0;
        let during = failure_rate 60 in
        Net.clear_partition net;
        Env.sleep 180.0;
        let after = failure_rate 60 in
        [ ("before", before); ("during the split", during); ("3 min after heal", after) ])
  in
  Report.table
    ~header:[ "phase"; "failed lookups (%)" ]
    (List.map (fun (k, v) -> [ k; Report.float_cell ~decimals:1 v ]) rows);
  let get k = List.assoc k rows in
  Common.shape_check "partition breaks cross-side routing" (get "during the split" > 10.0);
  Common.shape_check "routing recovers after the heal"
    (get "3 min after heal" < get "during the split" /. 2.0)

let run () =
  superset ();
  leafset ();
  proximity ();
  stagger ();
  vivaldi ();
  partition ()
