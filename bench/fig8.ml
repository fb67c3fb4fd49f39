(* Figure 8: memory consumption and load on a single host running many
   Pastry instances. The paper measures < 1.5 MB per instance (slightly
   growing as routing tables fill), low load, and the start of swapping at
   1,263 instances on the 2 GB machine. *)

open Splay
module Apps = Splay_apps

let run () =
  Report.section "Figure 8 — memory and load on one host packed with Pastry instances";
  let max_instances = Common.pick ~quick:800 ~full:1400 in
  let step = 200 in
  let rows, swap_at =
    Common.with_platform ~seed:8 (Platform.Cluster 1) (fun p ->
        let ctl = Platform.controller p in
        let daemon = List.hd (Platform.daemons p) in
        let config =
          {
            Apps.Pastry.default_config with
            join_delay_per_position = 0.0;
            stabilize_interval = 60.0 (* one random request per minute, as in the paper *);
          }
        in
        let dep, _nodes = Common.deploy_pastry ~config ctl ~n:step in
        let swap_at = ref None in
        let rows = ref [] in
        let record () =
          let n = Daemon.instance_count daemon in
          let mem_per_inst =
            Float.of_int (Daemon.memory_used daemon) /. Float.of_int (max 1 n) /. 1048576.0
          in
          let swapping = Testbed.service_mult (Platform.testbed p) (Daemon.host daemon) > 2.0 in
          if swapping && !swap_at = None then swap_at := Some n;
          rows :=
            [
              string_of_int n;
              Report.float_cell ~decimals:2 mem_per_inst;
              Report.float_cell ~decimals:3 (Daemon.load daemon);
              (if swapping then "swapping" else "");
            ]
            :: !rows
        in
        Env.sleep 30.0;
        record ();
        let continue_growing = ref true in
        while Daemon.instance_count daemon < max_instances && !continue_growing do
          let added = ref 0 in
          for _ = 1 to step do
            match Controller.add_node dep with Some _ -> incr added | None -> ()
          done;
          if !added = 0 then continue_growing := false
          else begin
            Env.sleep 30.0;
            record ()
          end
        done;
        (List.rev !rows, !swap_at))
  in
  Report.table ~header:[ "instances"; "MB / instance"; "load"; "" ] rows;
  (match swap_at with
  | Some n -> Report.kvf "swap starts at" "%d instances (paper: 1,263)" n
  | None -> Report.kv "swap starts at" "not reached at this scale (paper: 1,263)");
  let mem_cells = List.map (fun r -> float_of_string (List.nth r 1)) rows in
  Common.shape_check "per-instance footprint stays under ~1.6 MB"
    (List.for_all (fun m -> m < 1.7) mem_cells);
  Common.shape_check "load remains low before swap"
    (match rows with r :: _ -> float_of_string (List.nth r 2) < 1.0 | [] -> false)
