(* Churn management demo (the paper's Section 3.2 / Figure 4 workflow):
   deploy a Pastry overlay and drive it with a synthetic churn script while
   a background process keeps probing its health.

     dune exec examples/churn_failover.exe *)

open Splay
module Apps = Splay_apps

let churn_script =
  {|from 0s to 2m inc 10
from 2m to 4m const churn 30%
at 4m leave 50%
from 4m to 6m const|}

let () =
  let platform = Platform.create ~seed:11 (Platform.Cluster 10) in
  Platform.run ~name:"experiment-main" platform (fun p ->
      let ctl = Platform.controller p in
      let nodes = ref [] in
      let config =
        { Apps.Pastry.default_config with rpc_timeout = 3.0; stabilize_interval = 2.0 }
      in
      let dep =
        Controller.deploy ctl ~name:"pastry"
          ~main:(Apps.Pastry.app ~config ~register:(fun x -> nodes := x :: !nodes))
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 20)
      in
      Env.sleep 60.0;
      Printf.printf "initial population: %d\n" (Controller.live_count dep);
      Printf.printf "churn script:\n%s\n\n" churn_script;

      let script = Script.parse churn_script in
      let _proc, stats = Replayer.run_script dep script in

      (* a monitor probing the overlay every 20 virtual seconds *)
      Printf.printf "%6s %10s %12s %s\n" "t(s)" "live" "lookup" "result";
      let rng = Rng.split (Engine.rng (Platform.engine p)) in
      for _ = 1 to 18 do
        Env.sleep 20.0;
        let live = List.filter (fun x -> not (Apps.Pastry.is_stopped x)) !nodes in
        match live with
        | [] -> Printf.printf "%6.0f %10d %12s -\n" (Platform.now p) 0 "-"
        | _ -> (
            let origin = Rng.pick_list rng live in
            let key = Rng.int rng (Misc.pow2 32) in
            match Apps.Pastry.lookup origin key with
            | Some (owner, hops) ->
                Printf.printf "%6.0f %10d %12s owner=%08x hops=%d\n" (Platform.now p)
                  (Controller.live_count dep) "ok" owner.Apps.Node.id hops
            | None ->
                Printf.printf "%6.0f %10d %12s (routing broke, will heal)\n" (Platform.now p)
                  (Controller.live_count dep) "FAILED")
      done;
      Printf.printf "\nchurn applied: %d joins, %d leaves, %d failed joins\n"
        stats.Replayer.joins stats.Replayer.leaves stats.Replayer.failed_joins;

      (* the long-running-service mode: restore and hold the population *)
      let maintainer = Replayer.maintain ~target:30 ~interval:10.0 dep in
      Env.sleep 60.0;
      Printf.printf "after 60s of maintenance: %d live (target 30)\n"
        (Controller.live_count dep);
      Engine.kill (Platform.engine p) maintainer)
