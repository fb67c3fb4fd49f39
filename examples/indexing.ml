(* The paper's long-running use case (ii): "an indexing service based on a
   DHT ... for which the population of nodes may dynamically evolve during
   the lifetime of the system (and where failed nodes must be replaced
   automatically)". A replicated key-value index on Pastry, kept at a fixed
   population by the churn manager while nodes keep failing under it.

     dune exec examples/indexing.exe *)

open Splay
module Apps = Splay_apps

let () =
  let p = Platform.create ~seed:9 (Platform.Cluster 10) in
  Platform.run ~name:"experiment-main" p (fun p ->
      let ctl = Platform.controller p in
      let stores = ref [] in
      let main env =
        Apps.Pastry.app
          ~config:{ Apps.Pastry.default_config with rpc_timeout = 3.0; stabilize_interval = 2.0 }
          ~register:(fun pn ->
            let config =
              { Apps.Dht_store.default_config with republish_interval = 15.0; rpc_timeout = 3.0 }
            in
            stores := Apps.Dht_store.create ~config pn :: !stores)
          env
      in
      let dep =
        Controller.deploy ctl ~name:"index" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) 25)
      in
      Env.sleep 90.0;

      (* index a small corpus from one node *)
      let corpus =
        [
          ("ocaml", "a functional language with effects");
          ("splay", "distributed systems evaluation made simple");
          ("chord", "a scalable peer-to-peer lookup protocol");
          ("pastry", "decentralized object location and routing");
          ("vivaldi", "a decentralized network coordinate system");
        ]
      in
      let writer = List.hd !stores in
      List.iter
        (fun (k, v) ->
          let acks = Apps.Dht_store.put writer ~key:k ~value:v in
          Printf.printf "put %-8s -> %d replicas\n" k acks)
        corpus;

      (* keep the population at 25 while nodes die every 30 s *)
      let maintainer = Replayer.maintain ~target:25 ~interval:10.0 dep in
      let rng = Rng.split (Engine.rng (Platform.engine p)) in
      Printf.printf "\n%6s %6s %8s  %s\n" "t(s)" "live" "lookups" "sample";
      for round = 1 to 8 do
        Env.sleep 30.0;
        (match Controller.live_members dep with
        | (_, a, _) :: _ when round mod 2 = 0 -> Controller.crash_node dep a
        | _ -> ());
        (* query from a random live node *)
        let ok = ref 0 in
        let reader = Rng.pick_list rng !stores in
        List.iter
          (fun (k, _) -> if Apps.Dht_store.get reader ~key:k <> None then incr ok)
          corpus;
        let key, _ = Rng.pick_list rng corpus in
        let sample =
          match Apps.Dht_store.get reader ~key with
          | Some v -> Printf.sprintf "%s = %S" key v
          | None -> Printf.sprintf "%s = <unavailable>" key
        in
        Printf.printf "%6.0f %6d %5d/%d  %s\n" (Platform.now p) (Controller.live_count dep)
          !ok (List.length corpus) sample
      done;
      print_endline "\nthe index stayed readable while nodes failed and were replaced";
      Engine.kill (Platform.engine p) maintainer)
