(* The long-running-service use case (§5.7): a Squirrel-style cooperative
   web cache on Pastry absorbing a Zipf request stream, with the churn
   manager keeping the population steady as nodes fail underneath it.

     dune exec examples/webcache_demo.exe *)

open Splay
module Apps = Splay_apps

let () =
  let p = Platform.create ~seed:5 (Platform.Cluster 8) in
  Platform.run ~name:"experiment-main" p (fun p ->
      let ctl = Platform.controller p in
      let caches = ref [] in
      let main env =
        Apps.Pastry.app
          ~config:{ Apps.Pastry.default_config with rpc_timeout = 3.0; stabilize_interval = 2.0 }
          ~register:(fun pn ->
            let config = { Apps.Webcache.default_config with ttl = 900.0 } in
            caches := Apps.Webcache.create ~config pn :: !caches)
          env
      in
      let dep =
        Controller.deploy ctl ~name:"webcache" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 30)
      in
      Env.sleep 90.0;

      (* hold the population at 30 while we also inject failures *)
      let maintainer = Replayer.maintain ~target:30 ~interval:15.0 dep in

      let rng = Rng.split (Engine.rng (Platform.engine p)) in
      let zipf = Rng.Zipf.create ~n:5000 ~s:1.1 in
      let hits = ref 0 and misses = ref 0 and failed = ref 0 in
      let delay_hit = Dist.create () and delay_miss = Dist.create () in

      Printf.printf "%8s %6s %8s %8s %8s\n" "t(s)" "live" "hit%" "p50 hit" "p50 miss";
      for minute = 1 to 10 do
        for _ = 1 to 120 do
          Env.sleep 0.5;
          let url = Printf.sprintf "http://demo/%d" (Rng.Zipf.draw zipf rng) in
          match !caches with
          | [] -> ()
          | cs -> (
              let live = List.filter (fun _ -> true) cs in
              let client = Rng.pick_list rng live in
              match Apps.Webcache.get client url with
              | _, `Hit, d ->
                  incr hits;
                  Dist.add delay_hit d
              | _, `Miss, d ->
                  incr misses;
                  Dist.add delay_miss d
              | _, (`Failed | `Shed), _ -> incr failed)
        done;
        (* inject a failure every other minute; the maintainer heals it *)
        if minute mod 2 = 0 then begin
          match Controller.live_members dep with
          | (_, a, _) :: _ -> Controller.crash_node dep a
          | [] -> ()
        end;
        let ratio = 100.0 *. Float.of_int !hits /. Float.of_int (max 1 (!hits + !misses)) in
        Printf.printf "%8.0f %6d %7.1f%% %7.0fms %7.0fms\n" (Platform.now p)
          (Controller.live_count dep) ratio
          (if Dist.is_empty delay_hit then 0.0 else 1000.0 *. Dist.percentile delay_hit 50.0)
          (if Dist.is_empty delay_miss then 0.0 else 1000.0 *. Dist.percentile delay_miss 50.0)
      done;
      Printf.printf
        "\ntotal: %d hits, %d misses, %d failed (failures during node crashes heal)\n" !hits
        !misses !failed;
      Engine.kill (Platform.engine p) maintainer)
