module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Controller = Splay_ctl.Controller
module Platform = Splay_ctl.Platform
module Descriptor = Splay_ctl.Descriptor
module Apps = Splay_apps

type outcome = {
  o_suite : string;
  o_seed : int;
  o_nemesis : Nemesis.t;
  o_violations : Invariant.violation list;
  o_crashes : string list;
}

let failed o = o.o_violations <> [] || o.o_crashes <> []

let outcome_to_string o =
  if not (failed o) then Printf.sprintf "%s seed %d: ok" o.o_suite o.o_seed
  else
    Printf.sprintf "%s seed %d: FAIL (nemesis: %s)\n%s" o.o_suite o.o_seed
      (match o.o_nemesis with [] -> "none" | n -> Nemesis.to_string n)
      (String.concat "\n"
         (List.map (fun v -> "  " ^ Invariant.violation_to_string v) o.o_violations
         @ List.map (fun c -> "  [crash] " ^ c) o.o_crashes))

type t = {
  name : string;
  doc : string;
  gen : Rng.t -> Nemesis.t;
  run : seed:int -> nemesis:Nemesis.t -> perturb:bool -> outcome;
}

(* When perturbation is on, same-instant events are reordered and every
   delivery picks up to this much extra random delay — enough to flush
   out accidental ordering dependencies, small enough not to distort the
   protocols' timing assumptions. *)
let perturb_extra_delay = 0.005

(* The oracle RNG (key choice, origin rotation) is derived from the trial
   seed but independent of the engine's stream, so adding an oracle never
   changes the schedule under test. *)
let check_rng seed = Rng.create (0x51ACC8EC lxor (seed * 0x9E3779B9))

(* One trial = one freshly built platform: engine (optionally perturbed),
   cluster testbed plus a controller host, daemons, and a driver process
   that deploys the application, lets the nemesis loose and evaluates the
   oracles. Everything is derived from [seed]; nothing escapes the call.
   A crash fails [Platform.run]; the outcome then lists every crashed
   process next to the violations the driver found before it ended. *)
let run_platform ~suite ~seed ~perturb ~hosts ~until f =
  let perturb = if perturb then Some perturb_extra_delay else None in
  let p = Platform.create ~seed ?perturb (Platform.Cluster hosts) in
  let violations = ref [] in
  (match
     Platform.run ~until ~name:("check:" ^ suite) p (fun p ->
         violations := f (Platform.engine p) (Platform.controller p))
   with
  | () | (exception Failure _) -> ());
  let crashes =
    List.rev_map
      (fun (p, e) -> Printf.sprintf "%s: %s" (Engine.proc_name p) (Printexc.to_string e))
      (Engine.crashed (Platform.engine p))
  in
  (!violations, crashes)

(* {2 DHT oracles, shared by the Chord family} *)

(* Ground truth for "who owns key": smallest live id >= key, cyclically. *)
let expected_responsible ids key ~modulus =
  let ids = List.sort_uniq Int.compare ids in
  match (List.filter (fun i -> i >= key) ids, ids) with
  | i :: _, _ | [], i :: _ -> i mod modulus
  | [], [] -> invalid_arg "expected_responsible: no ids"

type 'n dht = {
  d_id : 'n -> int;
  d_stopped : 'n -> bool;
  d_ring_of : 'n list -> int list;
  d_lookup : 'n -> int -> (Apps.Node.t * int) option;
}

let dht_invariants checker ~rng ~modulus ~dht ~nodes ~wrong_tol =
  let live () = List.filter (fun n -> not (dht.d_stopped n)) !nodes in
  Invariant.register checker "ring.successor-agreement" (fun () ->
      let l = live () in
      let ring = dht.d_ring_of l in
      if
        List.length ring = List.length l
        && List.sort_uniq Int.compare ring = List.sort_uniq Int.compare (List.map dht.d_id l)
      then Ok ()
      else
        Error
          (Printf.sprintf "successor walk visits %d of %d live nodes" (List.length ring)
             (List.length l)));
  Invariant.register checker "keys.no-lost" (fun () ->
      let l = live () in
      let live_ids = List.map dht.d_id l in
      let origins = Array.of_list l in
      let keys = 20 in
      let failures = ref 0 and wrong = ref 0 in
      for i = 0 to keys - 1 do
        let key = Rng.int rng modulus in
        match dht.d_lookup origins.(i mod Array.length origins) key with
        | None -> incr failures
        | Some (resp, _) ->
            if resp.Apps.Node.id <> expected_responsible live_ids key ~modulus then incr wrong
      done;
      if !failures = 0 && !wrong <= wrong_tol then Ok ()
      else
        Error
          (Printf.sprintf "%d/%d lookups failed; %d resolved to the wrong live owner" !failures
             keys !wrong))

(* {2 chord — base Chord, the demo quarry}

   No fault tolerance: a crashed successor is never pruned, lookups hit
   120 s timeouts and the ring never heals — exactly the failure §4's FT
   extensions exist to fix. Crash-only nemeses (the unguarded [join] in
   the paper's listing would crash the app main if the rendezvous died,
   which would bury the interesting finding under a trivial one). *)

let chord_config =
  (* m = 24 (the app default): a 14-node 16-bit ring collides ids across a
   200-seed sweep (birthday bound), and Chord's contract assumes unique ids *)
  { Apps.Chord.default_config with stabilize_interval = 2.0; join_delay_per_position = 0.5 }

let chord_nodes = 14

let chord_gen rng =
  let wave lo = Nemesis.Crash { at = lo +. Rng.float rng 30.0; count = 1 + Rng.int rng 3 } in
  let ops = [ wave 5.0 ] in
  if Rng.chance rng 0.4 then ops @ [ wave 60.0 ] else ops

let chord_run ~seed ~nemesis ~perturb =
  let rng = check_rng seed in
  let violations, crashes =
    run_platform ~suite:"chord" ~seed ~perturb ~hosts:7 ~until:600_000.0 (fun eng ctl ->
        let nodes = ref [] in
        let dep =
          Controller.deploy ctl ~name:"chord"
            ~main:(Apps.Chord.app ~config:chord_config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) chord_nodes)
        in
        Env.sleep ((Float.of_int chord_nodes *. 0.5) +. 120.0);
        Nemesis.run ~rng ~dep nemesis;
        Env.sleep 240.0;
        let checker = Invariant.create () in
        dht_invariants checker ~rng ~modulus:(1 lsl 24) ~nodes ~wrong_tol:0
          ~dht:
            {
              d_id = Apps.Chord.id;
              d_stopped = Apps.Chord.is_stopped;
              d_ring_of = Apps.Chord.ring_of;
              d_lookup = Apps.Chord.lookup;
            };
        let vs = Invariant.eval checker ~at:(Engine.now eng) Invariant.Quiescence in
        Controller.undeploy dep;
        vs)
  in
  { o_suite = "chord"; o_seed = seed; o_nemesis = nemesis; o_violations = violations; o_crashes = crashes }

(* {2 chord-ft / smoke} *)

let chord_ft_config =
  {
    Apps.Chord_ft.default_config with
    m = 24;
    stabilize_interval = 2.0;
    join_delay_per_position = 0.5;
    rpc_timeout = 5.0;
    suspect_threshold = 2;
    leafset_size = 4;
  }

let chord_ft_gen rng =
  let ops = [ Nemesis.Crash { at = 5.0 +. Rng.float rng 30.0; count = 1 + Rng.int rng 3 } ] in
  let ops =
    if Rng.chance rng 0.4 then
      ops @ [ Nemesis.Join { at = 60.0 +. Rng.float rng 20.0; count = 1 + Rng.int rng 2 } ]
    else ops
  in
  if Rng.chance rng 0.3 then
    ops
    @ [
        Nemesis.Slow
          { at = 40.0; until = 70.0 +. Rng.float rng 20.0; delay = 0.2 +. Rng.float rng 0.3 };
      ]
  else ops

let chord_ft_run ~name ~n ~seed ~nemesis ~perturb =
  let rng = check_rng seed in
  let violations, crashes =
    run_platform ~suite:name ~seed ~perturb ~hosts:7 ~until:600_000.0 (fun eng ctl ->
        let nodes = ref [] in
        let dep =
          Controller.deploy ctl ~name
            ~main:(Apps.Chord_ft.app ~config:chord_ft_config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
        in
        Env.sleep ((Float.of_int n *. 0.5) +. 120.0);
        Nemesis.run ~rng ~dep nemesis;
        Env.sleep 240.0;
        let checker = Invariant.create () in
        (* the leafset repairs the ring exactly, but a freshly joined or
           repaired overlay may misroute the odd key for a few more
           rounds — allow 1/20 *)
        dht_invariants checker ~rng ~modulus:(1 lsl 24) ~nodes ~wrong_tol:1
          ~dht:
            {
              d_id = Apps.Chord_ft.id;
              d_stopped = Apps.Chord_ft.is_stopped;
              d_ring_of = Apps.Chord_ft.ring_of;
              d_lookup = Apps.Chord_ft.lookup;
            };
        let vs = Invariant.eval checker ~at:(Engine.now eng) Invariant.Quiescence in
        Controller.undeploy dep;
        vs)
  in
  { o_suite = name; o_seed = seed; o_nemesis = nemesis; o_violations = violations; o_crashes = crashes }

(* {2 pastry} *)

let pastry_config =
  {
    Apps.Pastry.default_config with
    bits = 24;
    stabilize_interval = 2.0;
    rpc_timeout = 5.0;
    join_delay_per_position = 0.3;
  }

let pastry_nodes = 20

(* Pastry's owner: numerically closest id (min circular distance). *)
let pastry_owner ids key ~modulus =
  let d a b =
    let cw = (b - a + modulus) mod modulus in
    min cw (modulus - cw)
  in
  List.fold_left (fun best i -> if d i key < d best key then i else best) (List.hd ids) ids

let pastry_gen rng =
  let ops = [ Nemesis.Crash { at = 5.0 +. Rng.float rng 30.0; count = 1 + Rng.int rng 3 } ] in
  if Rng.chance rng 0.4 then
    ops
    @ [
        Nemesis.Drop
          { at = 20.0; until = 45.0 +. Rng.float rng 15.0; loss = 0.05 +. Rng.float rng 0.1 };
      ]
  else ops

let pastry_run ~seed ~nemesis ~perturb =
  let rng = check_rng seed in
  let violations, crashes =
    run_platform ~suite:"pastry" ~seed ~perturb ~hosts:7 ~until:600_000.0 (fun eng ctl ->
        let nodes = ref [] in
        let dep =
          Controller.deploy ctl ~name:"pastry"
            ~main:(Apps.Pastry.app ~config:pastry_config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) pastry_nodes)
        in
        Env.sleep ((Float.of_int pastry_nodes *. 0.3) +. 120.0);
        Nemesis.run ~rng ~dep nemesis;
        Env.sleep 180.0;
        let checker = Invariant.create () in
        Invariant.register checker "pastry.routing-converges" (fun () ->
            let live = List.filter (fun p -> not (Apps.Pastry.is_stopped p)) !nodes in
            let live_ids = List.map Apps.Pastry.id live in
            let origins = Array.of_list live in
            let total = 20 in
            let failures = ref 0 and wrong = ref 0 in
            for i = 0 to total - 1 do
              let key = Rng.int rng (1 lsl 24) in
              match Apps.Pastry.lookup origins.(i mod Array.length origins) key with
              | None -> incr failures
              | Some (owner, _) ->
                  if owner.Apps.Node.id <> pastry_owner live_ids key ~modulus:(1 lsl 24) then
                    incr wrong
            done;
            (* Fig. 10: a small residual right after repair is the expected
               regime, a large one is a routing bug *)
            if !failures <= 2 && !wrong <= 2 then Ok ()
            else
              Error
                (Printf.sprintf "%d/%d lookups failed; %d wrong owners" !failures total !wrong));
        let vs = Invariant.eval checker ~at:(Engine.now eng) Invariant.Quiescence in
        Controller.undeploy dep;
        vs)
  in
  { o_suite = "pastry"; o_seed = seed; o_nemesis = nemesis; o_violations = violations; o_crashes = crashes }

(* {2 rpc — at-most-once safety under message-level faults}

   One server, seven callers issuing uniquely-tokened calls. Callers at
   even positions retry with backoff (duplication allowed, bounded by the
   attempt count); odd positions are single-attempt (strict at-most-once).
   Safety oracles run at checkpoints {e while} the nemesis is active. *)

let rpc_nodes = 8

let rpc_gen rng =
  let ops = ref [] in
  if Rng.chance rng 0.7 then
    ops :=
      !ops
      @ [
          Nemesis.Drop
            {
              at = 5.0 +. Rng.float rng 10.0;
              until = 25.0 +. Rng.float rng 15.0;
              loss = 0.2 +. Rng.float rng 0.3;
            };
        ];
  if Rng.chance rng 0.5 then
    ops :=
      !ops
      @ [
          Nemesis.Slow
            {
              at = 20.0 +. Rng.float rng 10.0;
              until = 45.0 +. Rng.float rng 10.0;
              delay = 0.5 +. Rng.float rng 2.0;
            };
        ];
  if !ops = [] || Rng.chance rng 0.3 then
    ops :=
      !ops
      @ [
          Nemesis.Partition
            { at = 10.0 +. Rng.float rng 10.0; until = 35.0 +. Rng.float rng 10.0; groups = 2 };
        ];
  !ops

(* The rpc suite's one procedure: execute the call named by the token. *)
let p_exec = Rpc.proc "exec" (Rpc.arg Codec.string) Codec.unit

let rpc_run ~seed ~nemesis ~perturb =
  let rng = check_rng seed in
  let execs : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let oks : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let strict : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let main env =
    if env.Env.position = 1 then
      Rpc.handle env p_exec (fun tok ->
          Hashtbl.replace execs tok (1 + Option.value ~default:0 (Hashtbl.find_opt execs tok)))
    else begin
      Rpc.client env;
      let server = List.hd env.Env.nodes in
      let retrying = env.Env.position mod 2 = 0 in
      let options =
        if retrying then
          { Rpc.timeout = 2.0; retries = 2; backoff = 0.5; backoff_jitter = 0.5 }
        else { Rpc.default_options with timeout = 2.0 }
      in
      ignore
        (Env.thread env ~name:"caller" (fun () ->
             for i = 1 to 25 do
               Env.sleep 2.0;
               let tok = Printf.sprintf "%s#%d" (Addr.to_string env.Env.me) i in
               if not retrying then Hashtbl.replace strict tok ();
               match Rpc.invoke env server ~options p_exec tok with
               | Ok _ -> Hashtbl.replace oks tok ()
               | Error _ -> ()
             done))
    end
  in
  let violations, crashes =
    run_platform ~suite:"rpc" ~seed ~perturb ~hosts:4 ~until:100_000.0 (fun eng ctl ->
        let dep =
          Controller.deploy ctl ~name:"rpc" ~main
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) rpc_nodes)
        in
        let checker = Invariant.create () in
        let count_bad p = Hashtbl.fold (fun tok n acc -> if p tok n then acc + 1 else acc) execs 0 in
        Invariant.register checker ~phase:Invariant.Checkpoint "rpc.at-most-once" (fun () ->
            let bad = count_bad (fun tok n -> Hashtbl.mem strict tok && n > 1) in
            if bad = 0 then Ok ()
            else Error (Printf.sprintf "%d single-attempt calls executed more than once" bad));
        Invariant.register checker ~phase:Invariant.Checkpoint "rpc.bounded-duplication" (fun () ->
            let bad = count_bad (fun _ n -> n > 3) in
            if bad = 0 then Ok ()
            else Error (Printf.sprintf "%d calls executed more often than they were attempted" bad));
        Invariant.register checker "rpc.ok-implies-executed" (fun () ->
            let missing =
              Hashtbl.fold (fun tok () acc -> if Hashtbl.mem execs tok then acc else acc + 1) oks 0
            in
            if missing = 0 then Ok ()
            else Error (Printf.sprintf "%d calls reported Ok but never executed" missing));
        let vs = ref [] in
        Env.sleep 2.0;
        ignore
          (Env.thread (Controller.env ctl) ~name:"nemesis" (fun () ->
               Nemesis.run ~rng ~dep nemesis));
        (* callers run 2..~52 s; observe safety every 15 s while faults
           are live, then settle past the nemesis tail and retries *)
        for _ = 1 to 4 do
          Env.sleep 15.0;
          vs := !vs @ Invariant.eval checker ~at:(Engine.now eng) Invariant.Checkpoint
        done;
        Env.sleep (Float.max 30.0 (Nemesis.duration nemesis -. 60.0) +. 30.0);
        vs := !vs @ Invariant.eval checker ~at:(Engine.now eng) Invariant.Quiescence;
        Controller.undeploy dep;
        !vs)
  in
  { o_suite = "rpc"; o_seed = seed; o_nemesis = nemesis; o_violations = violations; o_crashes = crashes }

(* {2 epidemic — eventual delivery on lossy links} *)

let epidemic_nodes = 16
let epidemic_config = { Apps.Epidemic.default_config with fanout = 6 }

let epidemic_gen rng =
  let ops = ref [] in
  if Rng.chance rng 0.3 then
    ops := [ Nemesis.Crash { at = 1.0 +. Rng.float rng 5.0; count = 1 + Rng.int rng 2 } ];
  if Rng.chance rng 0.7 then
    ops :=
      !ops
      @ [
          Nemesis.Drop
            {
              at = Rng.float rng 3.0;
              until = 15.0 +. Rng.float rng 15.0;
              loss = 0.05 +. Rng.float rng 0.1;
            };
        ];
  if !ops = [] || Rng.chance rng 0.4 then
    ops :=
      !ops
      @ [
          Nemesis.Slow
            {
              at = Rng.float rng 5.0;
              until = 20.0 +. Rng.float rng 10.0;
              delay = 0.3 +. Rng.float rng 1.0;
            };
        ];
  !ops

let epidemic_run ~seed ~nemesis ~perturb =
  let rng = check_rng seed in
  let rumor = Printf.sprintf "rumor-%d" seed in
  let violations, crashes =
    run_platform ~suite:"epidemic" ~seed ~perturb ~hosts:8 ~until:100_000.0 (fun eng ctl ->
        let nodes = ref [] in
        let dep =
          Controller.deploy ctl ~name:"epidemic"
            ~main:(Apps.Epidemic.app ~config:epidemic_config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:Descriptor.All epidemic_nodes)
        in
        Env.sleep 10.0;
        ignore
          (Env.thread (Controller.env ctl) ~name:"nemesis" (fun () ->
               Nemesis.run ~rng ~dep nemesis));
        Env.sleep 2.0;
        (* inject mid-faults, at the first-deployed node still alive — an
           operator would not pick a crashed machine to start a rumor, and
           a rumor that was never injected says nothing about delivery *)
        (match
           List.filter (fun n -> not (Apps.Epidemic.is_stopped n)) (List.rev !nodes)
         with
        | origin :: _ -> Apps.Epidemic.broadcast origin rumor
        | [] -> ());
        Env.sleep (Float.max 60.0 (Nemesis.duration nemesis) +. 45.0);
        let checker = Invariant.create () in
        Invariant.register checker "epidemic.eventual-delivery" (fun () ->
            let live = List.filter (fun n -> not (Apps.Epidemic.is_stopped n)) !nodes in
            let missing =
              List.length (List.filter (fun n -> not (Apps.Epidemic.has_received n rumor)) live)
            in
            (* push-only gossip with fanout 6 ≈ ln N + c: everyone with
               high probability; tolerate one unlucky node *)
            if missing <= 1 then Ok ()
            else Error (Printf.sprintf "%d of %d live nodes never saw the rumor" missing (List.length live)));
        let vs = Invariant.eval checker ~at:(Engine.now eng) Invariant.Quiescence in
        Controller.undeploy dep;
        vs)
  in
  {
    o_suite = "epidemic";
    o_seed = seed;
    o_nemesis = nemesis;
    o_violations = violations;
    o_crashes = crashes;
  }

(* {2 dht-store — the replicated store serves what the single writer wrote}

   Pastry with Dht_store layered on top, a single writer bumping one
   version per key per round while crashes and partitions land, then a
   quiescent read-back. Replication (3 copies at salted owners) plus
   republish-driven migration is what the oracles hold to account: a
   read may be stale (an old version from a lagging replica) but never
   fabricated, and an acknowledged key may be lost only rarely — a crash
   can eat at most one wave of replicas before republish re-spreads it. *)

let dht_store_nodes = 16
let dht_store_keys = 10
let dht_store_rounds = 4

let dht_store_gen rng =
  (* the crash window stretches past the last write round, so some trials
     probe pure durability (no rewrite can repair the damage, only the
     replica spread and republish migration can) *)
  let ops = [ Nemesis.Crash { at = 10.0 +. Rng.float rng 50.0; count = 1 + Rng.int rng 2 } ] in
  if Rng.chance rng 0.4 then
    ops
    @ [
        Nemesis.Partition
          { at = 15.0 +. Rng.float rng 10.0; until = 45.0 +. Rng.float rng 15.0; groups = 2 };
      ]
  else ops

let dht_store_run ~seed ~nemesis ~perturb =
  let rng = check_rng seed in
  let cfg =
    {
      Apps.Dht_store.default_config with
      republish_interval = 10.0;
      entry_ttl = 600.0;
      rpc_timeout = 5.0;
    }
  in
  let violations, crashes =
    run_platform ~suite:"dht-store" ~seed ~perturb ~hosts:7 ~until:600_000.0 (fun eng ctl ->
        let nodes = ref [] in
        let dep =
          Controller.deploy ctl ~name:"dht-store"
            ~main:(Apps.Pastry.app ~config:pastry_config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) dht_store_nodes)
        in
        Env.sleep ((Float.of_int dht_store_nodes *. 0.3) +. 120.0);
        let stores = List.map (fun p -> (p, Apps.Dht_store.create ~config:cfg p)) !nodes in
        let live_stores () =
          List.filter_map
            (fun (p, s) -> if Apps.Pastry.is_stopped p then None else Some s)
            stores
        in
        ignore
          (Env.thread (Controller.env ctl) ~name:"nemesis" (fun () ->
               Nemesis.run ~rng ~dep nemesis));
        (* single writer: one version per key per round, rounds riding
           through the fault window. [written] is the ground truth for
           no-wrong-value; [acked] (puts at least one replica took) is
           the ground truth for no-lost. *)
        let acked : (string, string) Hashtbl.t = Hashtbl.create 16 in
        let written : (string, string) Hashtbl.t = Hashtbl.create 64 in
        for round = 1 to dht_store_rounds do
          for k = 0 to dht_store_keys - 1 do
            let key = Printf.sprintf "k%d" k in
            let value = Printf.sprintf "%s@v%d" key round in
            match live_stores () with
            | [] -> ()
            | l ->
                let s = List.nth l (Rng.int rng (List.length l)) in
                Hashtbl.replace written value key;
                if Apps.Dht_store.put s ~key ~value > 0 then Hashtbl.replace acked key value
          done;
          Env.sleep 12.0
        done;
        (* outlive the nemesis, then give republish a few intervals to
           migrate entries onto the healed ring's owners *)
        Env.sleep (Float.max 0.0 (Nemesis.duration nemesis -. 48.0) +. 60.0);
        let checker = Invariant.create () in
        let read key i =
          match live_stores () with
          | [] -> None
          | l -> Apps.Dht_store.get (List.nth l ((key + i) mod List.length l)) ~key:(Printf.sprintf "k%d" key)
        in
        Invariant.register checker "dht.no-wrong-value" (fun () ->
            let wrong = ref 0 and reads = ref 0 in
            for k = 0 to dht_store_keys - 1 do
              for i = 0 to 1 do
                match read k i with
                | None -> ()
                | Some v ->
                    incr reads;
                    if Hashtbl.find_opt written v <> Some (Printf.sprintf "k%d" k) then incr wrong
              done
            done;
            if !wrong = 0 then Ok ()
            else
              Error
                (Printf.sprintf "%d of %d reads returned a value the writer never wrote" !wrong
                   !reads));
        Invariant.register checker "dht.no-lost" (fun () ->
            let lost = ref 0 and acked_n = ref 0 in
            for k = 0 to dht_store_keys - 1 do
              if Hashtbl.mem acked (Printf.sprintf "k%d" k) then begin
                incr acked_n;
                if read k 0 = None && read k 1 = None then incr lost
              end
            done;
            if !acked_n > 0 && !lost <= 1 then Ok ()
            else if !acked_n = 0 then Error "no put was ever acknowledged"
            else
              Error
                (Printf.sprintf "%d of %d acknowledged keys unreadable after quiescence" !lost
                   !acked_n));
        let vs = Invariant.eval checker ~at:(Engine.now eng) Invariant.Quiescence in
        Controller.undeploy dep;
        vs)
  in
  {
    o_suite = "dht-store";
    o_seed = seed;
    o_nemesis = nemesis;
    o_violations = violations;
    o_crashes = crashes;
  }

(* {2 webcache — freshness and origin discipline under faults}

   The cooperative cache with singleflight coalescing on, driven by
   concurrent readers through drop/slow/crash bursts. TTL is short
   enough that entries expire between rounds, so the expiry path runs
   for real — and stale-beyond-TTL serves must still be exactly zero.
   Origin fetches can never exceed home misses (coalescing only merges),
   and once the air clears a warmed url must be served from its home
   cache, not the origin. *)

let webcache_nodes = 16
let webcache_urls = 12

let webcache_gen rng =
  let ops = ref [] in
  if Rng.chance rng 0.5 then
    ops := [ Nemesis.Crash { at = 15.0 +. Rng.float rng 15.0; count = 1 } ];
  if Rng.chance rng 0.6 then
    ops :=
      !ops
      @ [
          Nemesis.Drop
            {
              at = 10.0 +. Rng.float rng 10.0;
              until = 30.0 +. Rng.float rng 15.0;
              loss = 0.05 +. Rng.float rng 0.1;
            };
        ];
  if !ops = [] || Rng.chance rng 0.4 then
    ops :=
      !ops
      @ [
          Nemesis.Slow
            { at = 10.0; until = 40.0 +. Rng.float rng 10.0; delay = 0.1 +. Rng.float rng 0.3 };
        ];
  !ops

let webcache_run ~seed ~nemesis ~perturb =
  let rng = check_rng seed in
  let cfg =
    { Apps.Webcache.default_config with ttl = 60.0; rpc_timeout = 5.0; coalesce = true }
  in
  let violations, crashes =
    run_platform ~suite:"webcache" ~seed ~perturb ~hosts:7 ~until:600_000.0 (fun eng ctl ->
        let nodes = ref [] in
        let dep =
          Controller.deploy ctl ~name:"webcache"
            ~main:(Apps.Pastry.app ~config:pastry_config ~register:(fun c -> nodes := c :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) webcache_nodes)
        in
        Env.sleep ((Float.of_int webcache_nodes *. 0.3) +. 120.0);
        let caches = List.map (fun p -> (p, Apps.Webcache.create ~config:cfg p)) !nodes in
        let live_caches () =
          List.filter_map
            (fun (p, c) -> if Apps.Pastry.is_stopped p then None else Some c)
            caches
        in
        ignore
          (Env.thread (Controller.env ctl) ~name:"nemesis" (fun () ->
               Nemesis.run ~rng ~dep nemesis));
        (* three request waves through the fault window; each wave reads
           every url from two origins concurrently, so same-url misses
           actually race and the coalescing path runs *)
        let url u = Printf.sprintf "u%d" u in
        for round = 0 to 2 do
          let pending = ref 0 in
          (match live_caches () with
          | [] -> ()
          | l ->
              let arr = Array.of_list l in
              for u = 0 to webcache_urls - 1 do
                for i = 0 to 1 do
                  incr pending;
                  ignore
                    (Env.thread (Controller.env ctl) ~name:"webcache-reader" (fun () ->
                         Fun.protect
                           ~finally:(fun () -> decr pending)
                           (fun () ->
                             ignore
                               (Apps.Webcache.get
                                  arr.((u + i + round) mod Array.length arr)
                                  (url u)))))
                done
              done);
          while !pending > 0 do
            Env.sleep 1.0
          done;
          (* longer than the TTL: the next wave refetches expired entries *)
          Env.sleep 65.0
        done;
        Env.sleep (Float.max 0.0 (Nemesis.duration nemesis -. 195.0) +. 30.0);
        let checker = Invariant.create () in
        let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 caches in
        Invariant.register checker "webcache.freshness" (fun () ->
            let stale = sum Apps.Webcache.stale_served in
            if stale = 0 then Ok ()
            else Error (Printf.sprintf "%d hits served past their TTL" stale));
        Invariant.register checker "webcache.origin-bounded" (fun () ->
            let origin = sum Apps.Webcache.origin_fetches
            and misses = sum Apps.Webcache.home_misses in
            if origin <= misses then Ok ()
            else
              Error
                (Printf.sprintf "%d origin fetches exceed %d home misses: coalescing amplified"
                   origin misses));
        Invariant.register checker "webcache.warm-hit" (fun () ->
            match live_caches () with
            | [] -> Error "no live caches left to read from"
            | l ->
                let arr = Array.of_list l in
                (* warm sweep, then a measuring sweep from different
                   origins within one TTL: home caches must serve it *)
                for u = 0 to webcache_urls - 1 do
                  ignore (Apps.Webcache.get arr.(u mod Array.length arr) (url u))
                done;
                let hits = ref 0 and failed = ref 0 in
                for u = 0 to webcache_urls - 1 do
                  match Apps.Webcache.get arr.((u + 1) mod Array.length arr) (url u) with
                  | _, `Hit, _ -> incr hits
                  | _, `Failed, _ -> incr failed
                  | _ -> ()
                done;
                if !failed = 0 && !hits >= webcache_urls - 2 then Ok ()
                else
                  Error
                    (Printf.sprintf "%d/%d warmed urls served from cache, %d failed" !hits
                       webcache_urls !failed));
        let vs = Invariant.eval checker ~at:(Engine.now eng) Invariant.Quiescence in
        Controller.undeploy dep;
        vs)
  in
  {
    o_suite = "webcache";
    o_seed = seed;
    o_nemesis = nemesis;
    o_violations = violations;
    o_crashes = crashes;
  }

(* {2 Registry} *)

let chord =
  {
    name = "chord";
    doc = "base Chord: ring consistency + no-lost-keys (expected to FAIL under crashes)";
    gen = chord_gen;
    run = chord_run;
  }

let chord_ft =
  {
    name = "chord-ft";
    doc = "fault-tolerant Chord: same oracles, survives crash/join/slow nemeses";
    gen = chord_ft_gen;
    run = (fun ~seed ~nemesis ~perturb -> chord_ft_run ~name:"chord-ft" ~n:14 ~seed ~nemesis ~perturb);
  }

let pastry =
  {
    name = "pastry";
    doc = "Pastry: routing reconverges to numerically-closest owner after crashes";
    gen = pastry_gen;
    run = pastry_run;
  }

let rpc =
  {
    name = "rpc";
    doc = "RPC layer: at-most-once safety at checkpoints under drop/slow/partition";
    gen = rpc_gen;
    run = rpc_run;
  }

let epidemic =
  {
    name = "epidemic";
    doc = "epidemic dissemination: eventual delivery on lossy, slow links";
    gen = epidemic_gen;
    run = epidemic_run;
  }

let dht_store =
  {
    name = "dht-store";
    doc = "replicated DHT store: no fabricated reads, no lost acked keys (crash/partition)";
    gen = dht_store_gen;
    run = dht_store_run;
  }

let webcache =
  {
    name = "webcache";
    doc = "cooperative web cache: zero stale serves, bounded origin fetches, warm hits";
    gen = webcache_gen;
    run = webcache_run;
  }

let smoke =
  {
    name = "smoke";
    doc = "fast always-green chord-ft variant (CI gate)";
    gen = (fun rng -> [ Nemesis.Crash { at = 5.0 +. Rng.float rng 20.0; count = 1 + Rng.int rng 2 } ]);
    run = (fun ~seed ~nemesis ~perturb -> chord_ft_run ~name:"smoke" ~n:10 ~seed ~nemesis ~perturb);
  }

let all = [ chord; chord_ft; pastry; rpc; epidemic; dht_store; webcache; smoke ]

let find name =
  match name with
  | "all" -> Ok (List.filter (fun s -> s.name <> "smoke") all)
  | _ -> (
      match List.find_opt (fun s -> s.name = name) all with
      | Some s -> Ok [ s ]
      | None ->
          Error
            (Printf.sprintf "unknown suite %S (known: %s, all)" name
               (String.concat ", " (List.map (fun s -> s.name) all))))
