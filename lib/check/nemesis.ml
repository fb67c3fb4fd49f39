module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Controller = Splay_ctl.Controller
module Script = Splay_churn.Script

type op =
  | Crash of { at : float; count : int }
  | Stop of { at : float; count : int }
  | Restart of { at : float; count : int }
  | Join of { at : float; count : int }
  | Partition of { at : float; until : float; groups : int }
  | Drop of { at : float; until : float; loss : float }
  | Slow of { at : float; until : float; delay : float }
  | Down of { at : float; until : float; count : int }
  | Squeeze of { at : float; count : int; budget : int }
  | Churn of { at : float; script : Script.t }

type t = op list

let op_time = function
  | Crash { at; _ }
  | Stop { at; _ }
  | Restart { at; _ }
  | Join { at; _ }
  | Partition { at; _ }
  | Drop { at; _ }
  | Slow { at; _ }
  | Down { at; _ }
  | Squeeze { at; _ }
  | Churn { at; _ } ->
      at

let op_end = function
  | Partition { until; _ } | Drop { until; _ } | Slow { until; _ } | Down { until; _ } -> until
  | Churn { at; script } -> at +. Script.duration script
  | op -> op_time op

let duration t = List.fold_left (fun acc op -> Float.max acc (op_end op)) 0.0 t

(* {2 Concrete syntax} *)

let op_to_string = function
  | Crash { at; count } -> Printf.sprintf "crash %d @ %g" count at
  | Stop { at; count } -> Printf.sprintf "stop %d @ %g" count at
  | Restart { at; count } -> Printf.sprintf "restart %d @ %g" count at
  | Join { at; count } -> Printf.sprintf "join %d @ %g" count at
  | Partition { at; until; groups } -> Printf.sprintf "partition %d @ %g to %g" groups at until
  | Drop { at; until; loss } -> Printf.sprintf "drop %g @ %g to %g" loss at until
  | Slow { at; until; delay } -> Printf.sprintf "slow %g @ %g to %g" delay at until
  | Down { at; until; count } -> Printf.sprintf "down %d @ %g to %g" count at until
  | Squeeze { at; count; budget } -> Printf.sprintf "squeeze %d x %d @ %g" count budget at
  | Churn { at; script } ->
      (* churn scripts are multi-line; fold them onto the one-line form
         with '|' separators so the whole nemesis stays shell-quotable *)
      let body =
        String.concat "|"
          (List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' (Script.to_string script)))
      in
      Printf.sprintf "churn{%s} @ %g" body at

let to_string t = String.concat "; " (List.map op_to_string t)

exception Parse_error of string

let parse_op s =
  let s = String.trim s in
  let fail () = raise (Parse_error (Printf.sprintf "unparsable nemesis op %S" s)) in
  let sf fmt k =
    try Scanf.sscanf s fmt k with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail ()
  in
  if String.starts_with ~prefix:"churn{" s then (
    match String.index_opt s '}' with
    | None -> fail ()
    | Some close ->
        let body = String.sub s 6 (close - 6) in
        let body = String.map (fun c -> if c = '|' then '\n' else c) body in
        let script =
          try Script.parse body
          with Script.Syntax_error m -> raise (Parse_error ("churn script: " ^ m))
        in
        let rest = String.sub s (close + 1) (String.length s - close - 1) in
        let at =
          try Scanf.sscanf rest " @ %f" Fun.id
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail ()
        in
        Churn { at; script })
  else
    match String.index_opt s ' ' with
    | None -> fail ()
    | Some i -> (
        match String.sub s 0 i with
        | "crash" -> sf "crash %d @ %f" (fun count at -> Crash { at; count })
        | "stop" -> sf "stop %d @ %f" (fun count at -> Stop { at; count })
        | "restart" -> sf "restart %d @ %f" (fun count at -> Restart { at; count })
        | "join" -> sf "join %d @ %f" (fun count at -> Join { at; count })
        | "partition" ->
            sf "partition %d @ %f to %f" (fun groups at until -> Partition { at; until; groups })
        | "drop" -> sf "drop %f @ %f to %f" (fun loss at until -> Drop { at; until; loss })
        | "slow" -> sf "slow %f @ %f to %f" (fun delay at until -> Slow { at; until; delay })
        | "down" -> sf "down %d @ %f to %f" (fun count at until -> Down { at; until; count })
        | "squeeze" ->
            sf "squeeze %d x %d @ %f" (fun count budget at -> Squeeze { at; count; budget })
        | _ -> fail ())

let parse s =
  String.split_on_char ';' s
  |> List.filter (fun c -> String.trim c <> "")
  |> List.map parse_op

(* {2 Shrinking} *)

(* Weakened variants of one op, most aggressive reduction first. Windows
   shrink towards their start, magnitudes halve; an op already at its
   minimum yields nothing (removal is a separate candidate). *)
let shrink_op op =
  let halve_window ~at ~until mk = if until -. at > 8.0 then [ mk (at +. ((until -. at) /. 2.0)) ] else [] in
  match op with
  | Crash { at; count } when count > 1 -> [ Crash { at; count = count / 2 } ]
  | Stop { at; count } when count > 1 -> [ Stop { at; count = count / 2 } ]
  | Restart { at; count } when count > 1 -> [ Restart { at; count = count / 2 } ]
  | Join { at; count } when count > 1 -> [ Join { at; count = count / 2 } ]
  | Partition { at; until; groups } ->
      (if groups > 2 then [ Partition { at; until; groups = 2 } ] else [])
      @ halve_window ~at ~until (fun until -> Partition { at; until; groups })
  | Drop { at; until; loss } ->
      (if loss > 0.1 then [ Drop { at; until; loss = loss /. 2.0 } ] else [])
      @ halve_window ~at ~until (fun until -> Drop { at; until; loss })
  | Slow { at; until; delay } ->
      (if delay > 0.05 then [ Slow { at; until; delay = delay /. 2.0 } ] else [])
      @ halve_window ~at ~until (fun until -> Slow { at; until; delay })
  | Down { at; until; count } ->
      (if count > 1 then [ Down { at; until; count = count / 2 } ] else [])
      @ halve_window ~at ~until (fun until -> Down { at; until; count })
  | Squeeze { at; count; budget } ->
      if count > 1 then [ Squeeze { at; count = count / 2; budget } ] else []
  | _ -> []

let shrink_candidates t =
  let removals = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) t) t in
  let weakenings =
    List.concat
      (List.mapi
         (fun i op ->
           List.map (fun op' -> List.mapi (fun j o -> if j = i then op' else o) t) (shrink_op op))
         t)
  in
  removals @ weakenings

(* {2 Application} *)

let run ~rng ~dep t =
  let ctl = Controller.deployment_ctl dep in
  let net = Controller.net ctl in
  let eng = Net.engine net in
  let t0 = Engine.now eng in
  let live_addrs () = List.map (fun (_, a, _) -> a) (Controller.live_members dep) in
  let stopped = ref [] in
  (* Expand ops into timed point actions (a windowed op contributes its
     start and its heal), sorted by time with declaration order breaking
     ties — so the same schedule always applies in the same order. *)
  let points = ref [] in
  let add time act = points := (time, List.length !points, act) :: !points in
  List.iter
    (fun op ->
      match op with
      | Crash { at; count } ->
          add at (fun () -> List.iter (Controller.crash_node dep) (Rng.sample rng count (live_addrs ())))
      | Stop { at; count } ->
          add at (fun () ->
              List.iter
                (fun a ->
                  Controller.stop_node dep a;
                  stopped := !stopped @ [ a ])
                (Rng.sample rng count (live_addrs ())))
      | Restart { at; count } ->
          add at (fun () ->
              let back = Misc.take count !stopped in
              stopped := List.filter (fun a -> not (List.mem a back)) !stopped;
              List.iter (Controller.restart_node dep) back)
      | Join { at; count } ->
          add at (fun () ->
              for _ = 1 to count do
                ignore (Controller.add_node dep)
              done)
      | Partition { at; until; groups } ->
          add at (fun () -> Net.set_partition net (fun h -> h mod groups));
          add until (fun () -> Net.clear_partition net)
      | Drop { at; until; loss } ->
          add at (fun () -> Net.set_loss net loss);
          add until (fun () -> Net.set_loss net 0.0)
      | Slow { at; until; delay } ->
          add at (fun () -> Net.set_extra_delay net delay);
          add until (fun () -> Net.set_extra_delay net 0.0)
      | Down { at; until; count } ->
          let tb = Net.testbed net and downed = ref [] in
          add at (fun () ->
              let hosts = List.sort_uniq compare (List.map (fun a -> a.Addr.host) (live_addrs ())) in
              downed := Rng.sample rng count hosts;
              List.iter (fun h -> Testbed.set_host_up tb h false) !downed);
          add until (fun () -> List.iter (fun h -> Testbed.set_host_up tb h true) !downed)
      | Squeeze { at; count; budget } ->
          add at (fun () ->
              List.iter
                (fun env ->
                  let sb = env.Env.sandbox in
                  Sandbox.squeeze sb
                    { Sandbox.unlimited with max_send_bytes = Sandbox.bytes_sent sb + budget })
                (Rng.sample rng count (Controller.live_envs dep)))
      | Churn { at; script } -> add at (fun () -> ignore (Splay_churn.Replayer.run_script dep script)))
    t;
  let points =
    List.sort
      (fun (t1, i1, _) (t2, i2, _) ->
        match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c)
      !points
  in
  List.iter
    (fun (time, _, act) ->
      (* blocking controller ops consume virtual time; only sleep forward *)
      let elapsed = Engine.now eng -. t0 in
      if time > elapsed then Engine.sleep (time -. elapsed);
      act ())
    points;
  let elapsed = Engine.now eng -. t0 in
  let tail = duration t in
  if tail > elapsed then Engine.sleep (tail -. elapsed)
