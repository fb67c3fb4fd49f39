(* Content distribution demo: the same 2 MB file pushed to a bandwidth-
   constrained swarm two ways — BitTorrent and parallel distribution trees
   — with per-node completion times, the workload family of Fig. 13 and
   the paper's BitTorrent use case ("distributing a large file ... whose
   lifetime is specified at runtime and usually short").

     dune exec examples/filedist.exe *)

open Splay
module Apps = Splay_apps

let mbps x = x *. 1_000_000.0 /. 8.0
let file_size = 2 * 1024 * 1024
let swarm = 24

let summarize name times =
  let d = Dist.create () in
  Dist.add_list d times;
  Printf.printf "%-12s first %.1fs   median %.1fs   last %.1fs   (%d nodes)\n" name
    (Dist.min_value d) (Dist.percentile d 50.0) (Dist.max_value d) (Dist.count d)

let run_trees () =
  let p =
    Platform.create ~seed:3 (Platform.Modelnet { hosts = swarm + 2; bandwidth = Some (mbps 2.0) })
  in
  Platform.run ~name:"experiment-main" p (fun p ->
      let ctl = Platform.controller p in
      let handles = ref [] in
      let config = { Apps.Trees.default_config with block_size = 64 * 1024; start_delay = 5.0 } in
      ignore
        (Controller.deploy ctl ~name:"trees"
           ~main:(Apps.Trees.app ~config ~file_size ~register:(fun x -> handles := x :: !handles))
           (Descriptor.make ~bootstrap:Descriptor.All swarm));
      let rec wait () =
        Env.sleep 10.0;
        if
          List.length !handles < swarm
          || List.exists (fun x -> Apps.Trees.completion_time x = None) !handles
        then wait ()
      in
      wait ();
      List.filter_map Apps.Trees.completion_time !handles)

let run_bittorrent () =
  let p =
    Platform.create ~seed:3 (Platform.Modelnet { hosts = swarm + 2; bandwidth = Some (mbps 2.0) })
  in
  Platform.run ~name:"experiment-main" p (fun p ->
      let ctl = Platform.controller p in
      let handles = ref [] in
      let config =
        { Apps.Bittorrent.default_config with piece_size = 64 * 1024; choke_interval = 5.0 }
      in
      ignore
        (Controller.deploy ctl ~name:"bittorrent"
           ~main:
             (Apps.Bittorrent.app ~config ~file_size
                ~register:(fun x -> handles := x :: !handles))
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) swarm));
      let rec wait budget =
        Env.sleep 15.0;
        if
          budget > 0.0
          && (List.length !handles < swarm
             || List.exists (fun x -> not (Apps.Bittorrent.complete x)) !handles)
        then wait (budget -. 15.0)
      in
      wait 3600.0;
      let total_up =
        List.fold_left (fun a x -> a + Apps.Bittorrent.uploaded_bytes x) 0 !handles
      in
      Printf.printf "bittorrent: %d MB uploaded across the swarm (%.1fx the file)\n"
        (total_up / 1024 / 1024)
        (Float.of_int total_up /. Float.of_int file_size);
      List.filter_map
        (fun x -> if Apps.Bittorrent.is_initial_seed x then None else Apps.Bittorrent.completion_time x)
        !handles)

let () =
  Printf.printf "distributing %d MB to %d nodes over 2 Mbps links\n\n"
    (file_size / 1024 / 1024) swarm;
  let trees = run_trees () in
  let bt = run_bittorrent () in
  summarize "trees" trees;
  summarize "bittorrent" bt;
  print_endline "\n(both bounded by the same links; trees pipeline deterministically,";
  print_endline " bittorrent trades startup time for robustness to peer churn)"
