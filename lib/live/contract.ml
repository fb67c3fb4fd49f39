module Engine = Splay_sim.Engine
module Instances = Splay_ctl.Instances

(* The sim-vs-live contract: one deployment, two execution backends, and
   a structural diff over the evidence both emit. Applications report
   their invariants as "REPORT ..." log lines (see [Live_apps]); this
   module runs the simulated twin of a live deployment in-process,
   parses both report streams into a [summary], and diffs ring
   successorship and lookup answers exactly, message counts within a
   tolerance (live runs retry where the simulation's first attempt
   always lands). *)

type summary = {
  ring : (int * int * int) list;  (* (id, succ, pred), sorted by id *)
  lookups : (int * (int * int) option) list;  (* key -> Some (owner, hops) *)
  calls : int option;
  done_ok : (int * int) option;  (* (issued, resolved) *)
}

let scan s fmt f =
  try Some (Scanf.sscanf s fmt f) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let is_report s = String.length s >= 6 && String.sub s 0 6 = "REPORT"

let summary_of_reports reports =
  let ring = ref [] and lookups = ref [] and calls = ref None and done_ok = ref None in
  List.iter
    (fun (_node, s) ->
      match scan s "REPORT ring id=%d succ=%d pred=%d" (fun a b c -> (a, b, c)) with
      | Some r -> ring := r :: !ring
      | None -> (
          match scan s "REPORT lookup key=%d owner=%d hops=%d" (fun k o h -> (k, Some (o, h))) with
          | Some l -> lookups := l :: !lookups
          | None -> (
              match scan s "REPORT lookup key=%d failed" (fun k -> (k, None)) with
              | Some l -> lookups := l :: !lookups
              | None -> (
                  match scan s "REPORT msgs calls=%d" (fun c -> c) with
                  | Some c -> calls := Some c
                  | None -> (
                      match scan s "REPORT done lookups=%d ok=%d" (fun l k -> (l, k)) with
                      | Some d -> done_ok := Some d
                      | None -> ())))))
    reports;
  {
    ring = List.sort compare !ring;
    lookups = List.rev !lookups;
    calls = !calls;
    done_ok = !done_ok;
  }

(* The simulated twin: same app main, same membership shape (one instance
   per host, registered, listed and started through the daemon core like
   a live splayd's), same parameters — under the virtual engine and a
   synthetic wide-area testbed. Returns the REPORT stream in emission
   order. *)
let run_sim ?(seed = 7) ?(until = 600.0) ~n ~app ~params () =
  match Registry.find app with
  | None -> Error (Printf.sprintf "unknown application %S" app)
  | Some main ->
      let eng = Engine.create ~seed () in
      let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
      let net = Net.create eng tb in
      let reports = ref [] in
      let sink =
        Log.Forward
          (fun ~time:_ ~level:_ ~node text ->
            if is_report text then reports := (node, text) :: !reports)
      in
      let make_env host port =
        let env = Env.create net ~me:(Addr.make host port) in
        Log.set_sink (Env.log env) sink;
        env
      in
      let tbls = List.init n (fun host -> Instances.create ~host) in
      let nodes =
        List.mapi
          (fun host tbl ->
            Addr.make host (Instances.register tbl ~job:0 ~name:app ~main:(main ~params) (make_env host)))
          tbls
      in
      List.iteri
        (fun i (tbl, a) ->
          let port = a.Addr.port in
          ignore (Instances.list tbl ~port ~position:(i + 1) ~nodes);
          ignore (Instances.start tbl ~job:0 ~port))
        (List.combine tbls nodes);
      ignore (Engine.run ~until eng);
      (match Engine.crashed eng with
      | [] -> Ok (List.rev !reports)
      | (p, e) :: _ ->
          Error
            (Printf.sprintf "simulated twin crashed: %s: %s" (Engine.proc_name p)
               (Printexc.to_string e)))

let ring_to_string ring =
  String.concat " " (List.map (fun (i, s, p) -> Printf.sprintf "(%d %d %d)" i s p) ring)

let diff ?(tolerance = 0.5) ~sim ~live () =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if sim.ring <> live.ring then
    add "ring structure differs: sim=[%s] live=[%s]" (ring_to_string sim.ring)
      (ring_to_string live.ring);
  let ns = List.length sim.lookups and nl = List.length live.lookups in
  if ns <> nl then add "lookup count differs: sim=%d live=%d" ns nl
  else
    List.iter2
      (fun (ks, rs) (kl, rl) ->
        if ks <> kl then add "lookup sequence differs: sim key=%d live key=%d" ks kl
        else
          match (rs, rl) with
          | Some (os, hs), Some (ol, hl) ->
              if os <> ol then add "lookup key=%d owner differs: sim=%d live=%d" ks os ol;
              if hs <> hl then add "lookup key=%d hops differ: sim=%d live=%d" ks hs hl
          | None, None -> add "lookup key=%d failed under both backends" ks
          | None, Some _ -> add "lookup key=%d failed in simulation only" ks
          | Some _, None -> add "lookup key=%d failed live only" ks)
      sim.lookups live.lookups;
  (match (sim.calls, live.calls) with
  | Some cs, Some cl ->
      let hi = float_of_int (max cs cl) and lo = float_of_int (min cs cl) in
      if hi > 0.0 && (hi -. lo) /. hi > tolerance then
        add "rpc call counts diverge beyond %.0f%%: sim=%d live=%d" (tolerance *. 100.0) cs cl
  | None, _ -> add "simulated run emitted no message-count report"
  | _, None -> add "live run emitted no message-count report");
  (match (sim.done_ok, live.done_ok) with
  | Some (t1, k1), Some (t2, k2) ->
      if t1 <> t2 then add "lookup totals differ: sim=%d live=%d" t1 t2;
      if k1 < t1 then add "simulation resolved only %d/%d lookups" k1 t1;
      if k2 < t2 then add "live run resolved only %d/%d lookups" k2 t2
  | None, _ -> add "simulated run did not complete (no done report)"
  | _, None -> add "live run did not complete (no done report)");
  List.rev !out
