(* Quickstart: the complete chain of the paper in ~60 lines — stand up a
   testbed, deploy the Chord DHT through the controller, run lookups,
   inspect the logs.

     dune exec examples/quickstart.exe *)

open Splay
module Apps = Splay_apps

let () =
  (* a simulated PlanetLab slice: 50 hosts plus the controller machine *)
  let platform = Platform.create ~seed:7 (Platform.Planetlab 50) in
  Platform.run ~name:"experiment-main" platform (fun p ->
      let ctl = Platform.controller p in

      (* the application: the paper's Chord, registered so we can poke it *)
      let nodes = ref [] in
      let chord_main =
        Apps.Chord.app
          ~config:{ Apps.Chord.default_config with m = 20; join_delay_per_position = 0.5 }
          ~register:(fun node -> nodes := node :: !nodes)
      in

      (* the job descriptor, exactly as it would head a submitted script *)
      let descriptor =
        Descriptor.parse
          {|--[[ BEGIN SPLAY RESOURCES RESERVATION
             nb_splayd 30
             nodes head 1
             END SPLAY RESOURCES RESERVATION ]]|}
      in

      Printf.printf "deploying %d Chord nodes...\n" descriptor.Descriptor.nb_splayd;
      let deployment = Controller.deploy ctl ~name:"chord" ~main:chord_main descriptor in
      Printf.printf "deployed %d instances at t=%.1fs (virtual)\n"
        (Controller.live_count deployment)
        (Platform.now p);

      (* let the ring converge: staggered joins + a few stabilization rounds *)
      Env.sleep ((30.0 *. 0.5) +. 200.0);

      (* look up a few random keys from a random node *)
      let rng = Rng.split (Engine.rng (Platform.engine p)) in
      let origin = Rng.pick_list rng !nodes in
      Printf.printf "\nlookups from node %06x:\n" (Apps.Chord.id origin);
      for _ = 1 to 8 do
        let key = Rng.int rng (Misc.pow2 20) in
        match Apps.Chord.lookup origin key with
        | Some (owner, hops) ->
            Printf.printf "  key %06x -> node %06x  (%d hops)\n" key owner.Apps.Node.id hops
        | None -> Printf.printf "  key %06x -> lookup failed\n" key
      done;

      (* the ring, as the framework sees it *)
      let ring = Apps.Chord.ring_of !nodes in
      Printf.printf "\nring: %d/%d nodes linked in id order\n" (List.length ring)
        (List.length !nodes);

      Controller.undeploy deployment;
      Printf.printf "undeployed at t=%.1fs\n" (Platform.now p))
