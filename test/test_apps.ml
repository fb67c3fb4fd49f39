(* Integration tests for the overlay applications, each running on a real
   deployment through the controller. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl
module Apps = Splay_apps

let with_platform ?(hosts = 10) ?(seed = 31) ?(until = 36000.0) f =
  Platform.run ~until (Platform.create ~seed (Platform.Cluster hosts)) (fun p ->
      f (Platform.engine p) (Platform.net p) (Platform.controller p))

(* The node with the smallest id >= key (cyclically) among [ids] — ground
   truth for "who is responsible for key". *)
let expected_responsible ids key ~modulus =
  let ids = List.sort_uniq Int.compare ids in
  let after = List.filter (fun i -> i >= key) ids in
  match (after, ids) with
  | i :: _, _ -> i
  | [], i :: _ -> i
  | [], [] -> invalid_arg "no ids"
  |> fun i -> i mod modulus

(* {2 Chord (base)} *)

let deploy_chord ctl ~n ~config =
  let nodes = ref [] in
  let dep =
    Controller.deploy ctl ~name:"chord"
      ~main:(Apps.Chord.app ~config ~register:(fun c -> nodes := c :: !nodes))
      (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
  in
  (dep, nodes)

let chord_test_config =
  { Apps.Chord.default_config with m = 16; stabilize_interval = 2.0; join_delay_per_position = 0.5 }

let test_chord_ring_converges () =
  with_platform (fun _ _ ctl ->
      let n = 20 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      (* staggered joins: n*0.5s, then several stabilization rounds *)
      Env.sleep (Float.of_int n *. 0.5 +. 120.0);
      Alcotest.(check int) "all instances registered" n (List.length !nodes);
      let ring = Apps.Chord.ring_of !nodes in
      Alcotest.(check int) "ring visits every node once" n (List.length ring);
      (* every node has a predecessor after convergence *)
      List.iter
        (fun c ->
          Alcotest.(check bool) "has predecessor" true (Apps.Chord.predecessor c <> None))
        !nodes)

let test_chord_lookup_correct () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      Env.sleep (Float.of_int n *. 0.5 +. 150.0);
      let ids = List.map Apps.Chord.id !nodes in
      let rng = Rng.create 99 in
      let origin = List.hd !nodes in
      for _ = 1 to 50 do
        let key = Rng.int rng (1 lsl 16) in
        match Apps.Chord.lookup origin key with
        | Some (resp, hops) ->
            Alcotest.(check int)
              (Printf.sprintf "responsible for %d" key)
              (expected_responsible ids key ~modulus:(1 lsl 16))
              resp.Apps.Node.id;
            Alcotest.(check bool) "hops bounded" true (hops <= n)
        | None -> Alcotest.fail "lookup failed on a stable ring"
      done)

let test_chord_hops_logarithmic () =
  with_platform ~hosts:16 (fun _ _ ctl ->
      let n = 48 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      (* long enough for fingers to populate: m=16 fingers, one per 2s round *)
      Env.sleep (Float.of_int n *. 0.5 +. 2.0 *. 16.0 *. 3.0 +. 60.0);
      let rng = Rng.create 7 in
      let total_hops = ref 0 and count = ref 0 in
      List.iteri
        (fun i origin ->
          if i < 12 then
            for _ = 1 to 10 do
              match Apps.Chord.lookup origin (Rng.int rng (1 lsl 16)) with
              | Some (_, hops) ->
                  total_hops := !total_hops + hops;
                  incr count
              | None -> Alcotest.fail "lookup failed"
            done)
        !nodes;
      let avg = Float.of_int !total_hops /. Float.of_int !count in
      (* paper: average below (log2 N)/2 = 2.79 for N=48 *)
      Alcotest.(check bool)
        (Printf.sprintf "avg hops %.2f below log2(N)" avg)
        true
        (avg < log (Float.of_int n) /. log 2.0))

let test_chord_fingers_exact () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      (* several full finger sweeps on a stable ring: m=16 fingers, one
         refresh per 2 s round *)
      Env.sleep ((Float.of_int n *. 0.5) +. (2.0 *. 16.0 *. 3.0) +. 60.0);
      let ids = List.map Apps.Chord.id !nodes in
      let modulus = 1 lsl 16 in
      let exact = ref 0 and total = ref 0 in
      List.iter
        (fun c ->
          Array.iteri
            (fun i f ->
              match f with
              | Some node ->
                  incr total;
                  let target = (Apps.Chord.id c + (1 lsl i)) mod modulus in
                  if node.Apps.Node.id = expected_responsible ids target ~modulus then incr exact
              | None -> ())
            (Apps.Chord.fingers c))
        !nodes;
      (* the finger invariant: finger[i] = successor(n + 2^(i-1)) *)
      Alcotest.(check bool)
        (Printf.sprintf "fingers exact after sweeps (%d/%d)" !exact !total)
        true
        (Float.of_int !exact /. Float.of_int !total > 0.98))

(* Warm start: a ring built by [assemble] must route exactly like a
   converged joined ring, with no periodics and no join traffic. *)
let test_chord_assemble_routes_correctly () =
  let n = 500 in
  let config = { Apps.Chord.default_config with m = 16 } in
  let md = 1 lsl 16 in
  let eng = Engine.create ~seed:77 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let spacing = md / n in
  let ring =
    Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000))
  in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    let env = Env.create net ~me:ring.(i).Apps.Node.addr in
    Apps.Chord.assemble ~config ~ring ~index:i ~register:(fun c -> nodes.(i) <- Some c) env
  done;
  let ids = Array.to_list (Array.map (fun nd -> nd.Apps.Node.id) ring) in
  let rng = Rng.create 5 in
  let checked = ref 0 in
  ignore
    (Env.thread
       (match nodes.(0) with
       | Some c -> Apps.Chord.node_env c
       | None -> assert false)
       ~name:"assemble-lookups"
       (fun () ->
         for _ = 1 to 100 do
           let key = Rng.int rng md in
           let origin = match nodes.(Rng.int rng n) with Some c -> c | None -> assert false in
           match Apps.Chord.lookup origin key with
           | Some (owner, hops) ->
               incr checked;
               Alcotest.(check int) "routes to the responsible node"
                 (expected_responsible ids key ~modulus:md)
                 owner.Apps.Node.id;
               Alcotest.(check bool) "hop count is logarithmic-ish" true (hops <= 2 * 16)
           | None -> Alcotest.fail "lookup failed on a failure-free assembled ring"
         done));
  ignore (Engine.run ~until:3600.0 eng);
  Alcotest.(check int) "all lookups ran" 100 !checked;
  (* structural spot checks: neighbours and first finger agree with the ring *)
  (match nodes.(3) with
  | Some c ->
      Alcotest.(check (option int)) "successor is the next ring entry"
        (Some ring.(4).Apps.Node.id)
        (Option.map (fun nd -> nd.Apps.Node.id) (Apps.Chord.successor c));
      Alcotest.(check (option int)) "predecessor is the previous ring entry"
        (Some ring.(2).Apps.Node.id)
        (Option.map (fun nd -> nd.Apps.Node.id) (Apps.Chord.predecessor c))
  | None -> Alcotest.fail "node 3 not registered");
  (* a joined ring keeps 3 periodics per node alive forever; an assembled
     ring's queue must drain completely once the lookups finish *)
  Alcotest.(check int) "assemble started no periodic processes" 0 (Engine.pending_events eng)

(* {2 Chord (fault-tolerant)} *)

let deploy_chord_ft ctl ~n ~config =
  let nodes = ref [] in
  let dep =
    Controller.deploy ctl ~name:"chord-ft"
      ~main:(Apps.Chord_ft.app ~config ~register:(fun c -> nodes := c :: !nodes))
      (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
  in
  (dep, nodes)

let chord_ft_test_config =
  {
    Apps.Chord_ft.default_config with
    m = 16;
    stabilize_interval = 2.0;
    join_delay_per_position = 0.5;
    rpc_timeout = 5.0;
  }

let test_chord_ft_converges_and_replicates () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let _dep, nodes = deploy_chord_ft ctl ~n ~config:chord_ft_test_config in
      Env.sleep (Float.of_int n *. 0.5 +. 120.0);
      List.iter
        (fun c ->
          Alcotest.(check bool) "has a full leafset" true
            (List.length (Apps.Chord_ft.successors c) >= 4))
        !nodes)

let test_chord_ft_survives_failures () =
  with_platform (fun _ _ ctl ->
      let n = 20 in
      let dep, nodes = deploy_chord_ft ctl ~n ~config:chord_ft_test_config in
      Env.sleep (Float.of_int n *. 0.5 +. 120.0);
      (* crash a third of the network *)
      let members = Controller.live_members dep in
      List.iteri (fun i (_, a, _) -> if i mod 3 = 0 then Controller.crash_node dep a) members;
      (* let the suspicion/pruning machinery converge *)
      Env.sleep 180.0;
      let live = List.filter (fun c -> not (Apps.Chord_ft.is_stopped c)) !nodes in
      Alcotest.(check bool) "some nodes survived" true (List.length live >= 10);
      let live_ids = List.map Apps.Chord_ft.id live in
      let rng = Rng.create 5 in
      let failures = ref 0 and wrong = ref 0 in
      let origin = List.hd live in
      for _ = 1 to 40 do
        let key = Rng.int rng (1 lsl 16) in
        match Apps.Chord_ft.lookup origin key with
        | Some (resp, _) ->
            if resp.Apps.Node.id <> expected_responsible live_ids key ~modulus:(1 lsl 16) then
              incr wrong
        | None -> incr failures
      done;
      Alcotest.(check int) "no failed lookups after recovery" 0 !failures;
      Alcotest.(check bool) (Printf.sprintf "few wrong owners (%d/40)" !wrong) true (!wrong <= 2);
      (* the pruning machinery actually fired *)
      let total_suspected =
        List.fold_left (fun acc c -> acc + Apps.Chord_ft.suspected_count c) 0 live
      in
      Alcotest.(check bool) "suspects pruned" true (total_suspected > 0))

(* {2 Pastry} *)

let pastry_test_config =
  {
    Apps.Pastry.default_config with
    bits = 16;
    stabilize_interval = 2.0;
    rpc_timeout = 5.0;
    join_delay_per_position = 0.3;
  }

let deploy_pastry ?(config = pastry_test_config) ctl ~n =
  let nodes = ref [] in
  let dep =
    Controller.deploy ctl ~name:"pastry"
      ~main:(Apps.Pastry.app ~config ~register:(fun c -> nodes := c :: !nodes))
      (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
  in
  (dep, nodes)

(* Pastry's owner is the numerically closest id on the ring. *)
let pastry_owner ids key ~modulus =
  let d a b =
    let cw = (b - a + modulus) mod modulus in
    min cw (modulus - cw)
  in
  List.fold_left (fun best i -> if d i key < d best key then i else best) (List.hd ids) ids

let test_pastry_converges () =
  with_platform (fun _ _ ctl ->
      let n = 25 in
      let _dep, nodes = deploy_pastry ctl ~n in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      Alcotest.(check int) "all registered" n (List.length !nodes);
      List.iter
        (fun p ->
          Alcotest.(check bool) "leafset populated" true (List.length (Apps.Pastry.leafset p) >= 8);
          Alcotest.(check bool) "routing table populated" true
            (List.length (Apps.Pastry.table_entries p) >= 2))
        !nodes)

let test_pastry_lookup_correct () =
  with_platform (fun _ _ ctl ->
      let n = 20 in
      let _dep, nodes = deploy_pastry ctl ~n in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let ids = List.map Apps.Pastry.id !nodes in
      let rng = Rng.create 13 in
      List.iteri
        (fun i origin ->
          if i < 5 then
            for _ = 1 to 20 do
              let key = Rng.int rng (1 lsl 16) in
              match Apps.Pastry.lookup origin key with
              | Some (owner, hops) ->
                  Alcotest.(check int)
                    (Printf.sprintf "owner of %d" key)
                    (pastry_owner ids key ~modulus:(1 lsl 16))
                    owner.Apps.Node.id;
                  Alcotest.(check bool) "hops small" true (hops <= 8)
              | None -> Alcotest.fail "lookup failed on stable overlay"
            done)
        !nodes)

let test_pastry_survives_churn () =
  with_platform (fun _ _ ctl ->
      let n = 24 in
      let dep, nodes = deploy_pastry ctl ~n in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let members = Controller.live_members dep in
      List.iteri (fun i (_, a, _) -> if i mod 4 = 0 then Controller.crash_node dep a) members;
      Env.sleep 120.0;
      let live = List.filter (fun p -> not (Apps.Pastry.is_stopped p)) !nodes in
      let live_ids = List.map Apps.Pastry.id live in
      let rng = Rng.create 17 in
      let failures = ref 0 and wrong = ref 0 and total = 40 in
      let origin = List.hd live in
      for _ = 1 to total do
        let key = Rng.int rng (1 lsl 16) in
        match Apps.Pastry.lookup origin key with
        | Some (owner, _) ->
            if owner.Apps.Node.id <> pastry_owner live_ids key ~modulus:(1 lsl 16) then incr wrong
        | None -> incr failures
      done;
      (* Fig. 10 shows recovery takes minutes; a small residual right after
         repair is the expected regime, a large one is a routing bug *)
      Alcotest.(check bool) (Printf.sprintf "few failures after repair (%d/40)" !failures) true
        (!failures <= 2);
      Alcotest.(check bool) (Printf.sprintf "few wrong owners (%d)" !wrong) true (!wrong <= 2))

let test_pastry_proximity_prefers_close_entries () =
  (* on a testbed with distance structure, proximity-aware tables should
     pick lower-RTT entries than proximity-blind ones *)
  let run proximity =
    Platform.run ~until:36000.0 (Platform.create ~seed:77 (Platform.Planetlab 40)) (fun p ->
        let ctl = Platform.controller p and net = Platform.net p in
        let nodes = ref [] in
        let config = { pastry_test_config with proximity } in
        ignore
          (Controller.deploy ctl ~name:"pastry"
             ~main:(Apps.Pastry.app ~config ~register:(fun c -> nodes := c :: !nodes))
             (Descriptor.make ~bootstrap:(Descriptor.Head 1) 40));
        Env.sleep 180.0;
        let total = ref 0.0 and count = ref 0 in
        List.iter
          (fun x ->
            List.iter
              (fun e ->
                total :=
                  !total +. Net.base_rtt net (Apps.Pastry.addr x).Addr.host e.Apps.Node.addr.Addr.host;
                incr count)
              (Apps.Pastry.table_entries x))
          !nodes;
        !total /. Float.of_int (max 1 !count))
  in
  let with_prox = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "proximity lowers entry RTT (%.4f < %.4f)" with_prox without)
    true (with_prox < without)

(* Warm start: an overlay built by [Pastry.assemble] must route every key
   to the numerically closest id, with no periodics and no join traffic
   — the same contract the chord assemble test pins. *)
let test_pastry_assemble_routes_correctly () =
  let n = 500 in
  let config = { Apps.Pastry.default_config with bits = 16 } in
  let md = 1 lsl 16 in
  let eng = Engine.create ~seed:77 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  (* odd spacing: no key is ever exactly equidistant from two ids, so the
     expected owner is unique *)
  let spacing = md / n in
  let ring =
    Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000))
  in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    let env = Env.create net ~me:ring.(i).Apps.Node.addr in
    Apps.Pastry.assemble ~config ~ring ~index:i ~register:(fun p -> nodes.(i) <- Some p) env
  done;
  let ids = Array.to_list (Array.map (fun nd -> nd.Apps.Node.id) ring) in
  let rng = Rng.create 5 in
  let checked = ref 0 in
  ignore
    (Env.thread
       (match nodes.(0) with
       | Some p -> Apps.Pastry.node_env p
       | None -> assert false)
       ~name:"assemble-lookups"
       (fun () ->
         for _ = 1 to 100 do
           let key = Rng.int rng md in
           let origin = match nodes.(Rng.int rng n) with Some p -> p | None -> assert false in
           match Apps.Pastry.lookup origin key with
           | Some (owner, hops) ->
               incr checked;
               Alcotest.(check int) "routes to the numerically closest node"
                 (pastry_owner ids key ~modulus:md)
                 owner.Apps.Node.id;
               Alcotest.(check bool) "hop count bounded by table depth" true
                 (hops <= 2 * (config.Apps.Pastry.bits / config.Apps.Pastry.b))
           | None -> Alcotest.fail "lookup failed on a failure-free assembled overlay"
         done));
  ignore (Engine.run ~until:3600.0 eng);
  Alcotest.(check int) "all lookups ran" 100 !checked;
  (match nodes.(3) with
  | Some p ->
      Alcotest.(check int) "leafset is the nearest ring neighbours"
        config.Apps.Pastry.leaf_size
        (List.length (Apps.Pastry.leafset p));
      Alcotest.(check bool) "routing table populated" true
        (List.length (Apps.Pastry.table_entries p) >= config.Apps.Pastry.bits / config.Apps.Pastry.b)
  | None -> Alcotest.fail "node 3 not registered");
  (* assembled overlays start no maintenance: the queue must drain *)
  Alcotest.(check int) "assemble started no periodic processes" 0 (Engine.pending_events eng)

(* {2 Node references and Pastry.learn against the code they replaced} *)

module Node = Apps.Node

(* [Node.ty]'s [of_value] before its in-place fast path: the reference for every
   input, canonical or not. *)
let old_of_value v =
  let id = Codec.to_int (Codec.member "id" v) in
  match String.split_on_char ':' (Codec.to_string (Codec.member "a" v)) with
  | [ h; p ] -> (
      match (int_of_string_opt h, int_of_string_opt p) with
      | Some h, Some p -> Node.make ~id ~addr:(Addr.make h p)
      | _ -> raise (Codec.Parse_error "bad node address"))
  | _ -> raise (Codec.Parse_error "bad node address")

let outcome f v = match f v with n -> Ok n | exception Codec.Parse_error m -> Error m

let prop_of_value_matches_old =
  let open QCheck.Gen in
  let spellings =
    [ "007:1"; "+5:2"; "0x10:3"; "1:2:3"; ""; "1:"; ":2"; "-:3"; "1_000:2"; " 1:2"; "1:2 ";
      "-0:5"; "1e3:2"; "-1:0"; "123456789012345678:9"; "1234567890123456789:9";
      "4611686018427387903:1"; "-4611686018427387904:0"; "9999999999999999999:1";
      "1:-9999999999999999999"; "99999999999999999999:1" ]
  in
  let fuzz =
    string_size ~gen:(oneofl [ '0'; '1'; '9'; '-'; '+'; ':'; 'x'; '_'; ' ' ]) (int_bound 12)
  in
  let any_int = oneof [ oneofl [ 0; -1; max_int; min_int ]; int; int_bound 100_000 ] in
  let canonical = map2 (Printf.sprintf "%d:%d") any_int any_int in
  let addr = oneof [ oneofl spellings; fuzz; canonical ] in
  let value =
    let* id = any_int and* a = addr in
    oneofl
      [
        Codec.Assoc [ ("id", Codec.Int id); ("a", Codec.String a) ];
        Codec.Assoc [ ("a", Codec.String a); ("id", Codec.Int id) ];
        Codec.Assoc [ ("id", Codec.Int id); ("a", Codec.String a); ("x", Codec.Null) ];
        Codec.Assoc [ ("id", Codec.String (string_of_int id)); ("a", Codec.String a) ];
        Codec.Assoc [ ("id", Codec.Int id); ("a", Codec.Int id) ];
        Codec.Assoc [ ("id", Codec.Int id) ];
        Codec.List [ Codec.Int id; Codec.String a ];
        Codec.Null;
      ]
  in
  QCheck.Test.make ~name:"Node.of_value = old parser" ~count:3000
    (QCheck.make ~print:Codec.encode value)
    (fun v -> outcome Node.ty.Codec.of_value v = outcome old_of_value v)

let prop_node_roundtrip =
  QCheck.Test.make ~name:"Node.of_value (to_value n) = n" ~count:1000
    QCheck.(triple int int int)
    (fun (id, h, p) ->
      let n = Node.make ~id ~addr:(Addr.make h p) in
      Node.ty.Codec.of_value (Node.ty.Codec.to_value n) = n)

(* Every message type the overlays send: [size] is the length of the
   encoding it never builds, and a value survives the tree and its text. *)
let prop_message_types =
  let open QCheck.Gen in
  let node = map3 (fun id h p -> Node.make ~id ~addr:(Addr.make h p)) int int int in
  let case name ty gen =
    QCheck.Test.make ~name:("message type " ^ name) ~count:300
      (QCheck.make ~print:(fun x -> Codec.encode (ty.Codec.to_value x)) gen)
      (fun x ->
        let v = ty.Codec.to_value x in
        ty.Codec.size x = Codec.encoded_size v
        && ty.Codec.size x = String.length (Codec.encode v)
        && ty.Codec.of_value v = x
        && ty.Codec.of_value (Codec.decode (Codec.encode v)) = x)
  in
  let hops = Codec.int and text = string_size (int_bound 40) in
  [
    case "int" Codec.int int;
    case "string" Codec.string text;
    case "bool" Codec.bool bool;
    case "unit" Codec.unit unit;
    case "option bool" (Codec.option Codec.bool) (opt bool);
    case "node" Node.ty node;
    case "option node" (Codec.option Node.ty) (opt node);
    case "node list" (Codec.list Node.ty) (list_size (int_bound 20) node);
    case "node and hops" (Codec.record2 "node" Node.ty "hops" hops) (pair node int);
    case "node option and hops"
      (Codec.record2 "node" (Codec.option Node.ty) "hops" hops)
      (pair (opt node) int);
    case "cyclon entries"
      (Codec.list (Codec.record2 "n" Node.ty "age" Codec.int))
      (list_size (int_bound 10) (pair node int));
    case "bittorrent piece" Apps.Bittorrent.piece
      (oneof [ return `Choked; return `Missing; map (fun d -> `Data d) text ]);
    case "webcache reply" Apps.Webcache.reply (opt (pair text bool));
  ]

(* A procedure's argument list: a request costs the sum of its values'
   sizes, and the list survives its trees and their texts. *)
let prop_argument_lists =
  let open QCheck.Gen in
  let text = string_size (int_bound 40) in
  let addr = map2 Addr.make int int in
  let case name (args : _ Rpc.args) gen =
    QCheck.Test.make ~name:("message type " ^ name) ~count:300
      (QCheck.make ~print:(fun x -> Codec.encode (Codec.List (args.to_values x))) gen)
      (fun x ->
        let vs = args.to_values x in
        args.size x = List.fold_left (fun n v -> n + String.length (Codec.encode v)) 0 vs
        && args.of_values vs = x
        && args.of_values (List.map (fun v -> Codec.decode (Codec.encode v)) vs) = x)
  in
  [
    case "scribe event" (Rpc.args3 Codec.int Codec.string Codec.string) (triple int text text);
    case "splayd.probe" Daemon.proc_probe.args text;
    case "splayd.register" Daemon.proc_register.args int;
    case "splayd.list" Daemon.proc_list.args
      (triple int int (list_size (int_bound 20) addr));
    case "splayd.start" Daemon.proc_start.args (pair int int);
    case "splayd.free" Daemon.proc_free.args int;
    case "splayd.stop" Daemon.proc_stop.args int;
    case "splayd.blacklist" Daemon.proc_blacklist.args int;
  ]

(* [Pastry.learn] before its one-walk rewrite: two closures and two list
   walks per leafset half through [insert_bounded], the ring distance by
   [Misc.ring_distance]. Kept as the reference model; its peers are never
   suspected, so it leaves out the death certificates. *)
let insert_bounded ~cap key x l =
  let kx = key x in
  let rec fits k = function
    | _ when k <= 0 -> false
    | [] -> true
    | y :: rest -> key y >= kx || fits (k - 1) rest
  in
  let rec insert k = function
    | _ when k <= 0 -> []
    | [] -> [ x ]
    | y :: rest as l -> if key y >= kx then x :: Misc.take (k - 1) l else y :: insert (k - 1) rest
  in
  if fits cap l then insert cap l
  else if List.compare_length_with l cap <= 0 then l
  else Misc.take cap l

(* The reference's insertion is the sort-then-truncate, ties included
   (small keys make equal distances common; tags tell tied elements
   apart). When the newcomer falls past the cap, the half comes back
   unchanged and uncopied. *)
let prop_insert_bounded =
  QCheck.Test.make ~name:"old insert = sort then cut" ~count:2000
    QCheck.(triple (int_range 1 8) (int_bound 6) (small_list (int_bound 6)))
    (fun (cap, kx, keys) ->
      let l = List.mapi (fun i k -> (k, i)) (List.sort Int.compare keys) in
      let l = Misc.take (cap + 2) l in
      let x = (kx, -1) in
      let got = insert_bounded ~cap fst x l in
      let by_key a b = Int.compare (fst a) (fst b) in
      let want = Misc.take cap (List.stable_sort by_key (x :: l)) in
      got = want && (List.mem x got || List.length l > cap || got == l))

type old_pastry = {
  cfg : Apps.Pastry.config;
  self : Node.t;
  rtt : Node.t -> float;
  mutable left : Node.t list;
  mutable right : Node.t list;
  table : Node.t option array array;
}

let old_learn o n =
  let cfg = o.cfg and self = o.self in
  let modulus = Misc.pow2 cfg.bits in
  let dist_cw a b = Misc.ring_distance a b ~modulus in
  let digit key row = (key lsr (cfg.bits - (cfg.b * (row + 1)))) land ((1 lsl cfg.b) - 1) in
  let nd = cfg.Apps.Pastry.bits / cfg.Apps.Pastry.b in
  let rec prefix row =
    if row < nd && digit self.id row = digit n.Node.id row then prefix (row + 1) else row
  in
  if (not (Node.equal n self)) && n.Node.id <> self.Node.id then begin
    let half = cfg.leaf_size / 2 in
    let insert lst ~d =
      if List.exists (Node.equal n) lst then lst else insert_bounded ~cap:half d n lst
    in
    o.right <- insert o.right ~d:(fun x -> dist_cw self.Node.id x.Node.id);
    o.left <- insert o.left ~d:(fun x -> dist_cw x.Node.id self.Node.id);
    let row = prefix 0 in
    if row < nd then begin
      let col = digit n.Node.id row in
      match o.table.(row).(col) with
      | None -> o.table.(row).(col) <- Some n
      | Some cur ->
          if (not (Node.equal cur n)) && cfg.proximity && o.rtt n < o.rtt cur then
            o.table.(row).(col) <- Some n
    end
  end

let old_table_entries o =
  List.concat_map (fun row -> List.filter_map Fun.id (Array.to_list row)) (Array.to_list o.table)

(* A lone assembled Pastry node (no peers yet) on a 4-host PlanetLab
   testbed, so that proximity has distinct RTTs to compare. *)
let lone_pastry config ~self =
  let eng = Engine.create ~seed:3 () in
  let net = Net.create eng (Testbed.planetlab ~n:4 (Engine.rng eng)) in
  let node = ref None in
  Apps.Pastry.assemble ~config ~ring:[| self |] ~index:0
    ~register:(fun p -> node := Some p)
    (Env.create net ~me:self.Node.addr);
  (net, Option.get !node)

let learn_configs =
  let d = Apps.Pastry.default_config in
  [|
    { d with bits = 8; b = 2; leaf_size = 4 };
    { d with bits = 8; b = 2; leaf_size = 6; proximity = false };
    { d with bits = 16; b = 4; leaf_size = 8 };
    d;
  |]

(* Random peer sequences over a small id pool, so equal ids with
   different addresses, repeats of one node and self's own id all occur;
   after every peer, both halves and the table equal the reference's. *)
let prop_learn_matches_old =
  let open QCheck.Gen in
  let case =
    let* ci = int_bound (Array.length learn_configs - 1) in
    let md = 1 lsl learn_configs.(ci).bits in
    let* self_id = int_bound (md - 1) and* pool = list_repeat 12 (int_bound (md - 1)) in
    let pool = Array.of_list (self_id :: pool) in
    let peer =
      map3
        (fun i h p -> Node.make ~id:pool.(i) ~addr:(Addr.make h (2000 + p)))
        (int_bound 12) (int_bound 3) (int_bound 2)
    in
    let* peers = list_size (int_range 1 60) peer in
    return (ci, self_id, peers)
  in
  let print (ci, self_id, peers) =
    Printf.sprintf "config %d, self %d, peers [%s]" ci self_id
      (String.concat "; "
         (List.map (fun n -> Printf.sprintf "%d@%s" n.Node.id (Addr.to_string n.Node.addr)) peers))
  in
  QCheck.Test.make ~name:"Pastry.learn = old learn" ~count:500
    (QCheck.make ~print case)
    (fun (ci, self_id, peers) ->
      let cfg = learn_configs.(ci) in
      let self = Node.make ~id:self_id ~addr:(Addr.make 0 2000) in
      let net, p = lone_pastry cfg ~self in
      let o =
        {
          cfg;
          self;
          rtt = (fun n -> Net.base_rtt net 0 n.Node.addr.Addr.host);
          left = [];
          right = [];
          table = Array.init (cfg.Apps.Pastry.bits / cfg.Apps.Pastry.b) (fun _ -> Array.make (1 lsl cfg.b) None);
        }
      in
      List.for_all
        (fun n ->
          Apps.Pastry.learn p n;
          old_learn o n;
          Apps.Pastry.halves p = (o.left, o.right)
          && Apps.Pastry.table_entries p = old_table_entries o)
        peers)

(* The wire forms of a node reference, pinned by allocation: encoding
   allocates the value tree and one string; decoding the canonical shape
   only the node and its address; taking in an already-known peer
   nothing, whether it holds its own table slot or loses that slot's RTT
   comparison on every call. *)
let test_node_reference_words () =
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. 1000.0
  in
  let n = Node.make ~id:123_456_789 ~addr:(Addr.make 12 2000) in
  let v = Node.ty.Codec.to_value n in
  Alcotest.(check (float 0.0)) "to_value minor words" 20.0
    (words (fun () -> Node.ty.Codec.to_value n));
  Alcotest.(check (float 0.0)) "of_value minor words" 6.0
    (words (fun () -> Node.ty.Codec.of_value v));
  let self = Node.make ~id:0x40000000 ~addr:(Addr.make 0 2000) in
  let _net, p = lone_pastry Apps.Pastry.default_config ~self in
  let peer = Node.make ~id:0x40000123 ~addr:(Addr.make 1 2000) in
  Apps.Pastry.learn p peer;
  Alcotest.(check int) "peer in the right half" 1 (List.length (snd (Apps.Pastry.halves p)));
  Alcotest.(check int) "peer in the table" 1 (List.length (Apps.Pastry.table_entries p));
  Alcotest.(check (float 0.0)) "learn of a known peer: minor words" 0.0
    (words (fun () -> Apps.Pastry.learn p peer));
  let rival = Node.make ~id:0x40000124 ~addr:(Addr.make 2 2000) in
  Apps.Pastry.learn p rival;
  let table = Apps.Pastry.table_entries p in
  Alcotest.(check int) "one slot for the two" 1 (List.length table);
  let loser = if Node.equal (List.hd table) peer then rival else peer in
  Alcotest.(check (float 0.0)) "learn of a known peer beaten for its slot: minor words" 0.0
    (words (fun () -> Apps.Pastry.learn p loser))

(* Minor words for one leafset exchange between two assembled Pastry
   nodes, both ends: the request, the 17-node reply (the callee and its
   16-node leafset) and the caller learning every node in it. The
   procedure is [p.leafset]'s, name, types and handler: it replaces the
   callee's own binding. Every peer is known after the warm-up, so
   [learn] allocates nothing and the count is the message path's: 160.2
   words, pinned at +5%. Built as a [Codec.value] tree on both ends and
   parsed back into 17 fresh nodes, the same exchange cost 655.2. *)
let test_leafset_exchange_words () =
  let eng = Engine.create ~seed:17 () in
  let net = Net.create eng (Testbed.synthetic ~hosts:40 (Engine.rng eng)) in
  let ring = Array.init 40 (fun i -> Node.make ~id:(i lsl 26) ~addr:(Addr.make i 2000)) in
  let assemble index =
    let node = ref None in
    Apps.Pastry.assemble ~ring ~index
      ~register:(fun p -> node := Some p)
      (Env.create net ~me:ring.(index).Node.addr);
    Option.get !node
  in
  let callee = assemble 0 and caller = assemble 1 in
  let p_leafset = Rpc.proc "p.leafset" Rpc.no_args (Codec.list Node.ty) in
  Rpc.handle (Apps.Pastry.node_env callee) p_leafset (fun () ->
      Apps.Pastry.self_node callee :: Apps.Pastry.leafset callee);
  let replied = ref 0 in
  let exchanges k =
    let env = Apps.Pastry.node_env caller in
    ignore
      (Env.thread env (fun () ->
           for _ = 1 to k do
             match Rpc.invoke env ring.(0).Node.addr p_leafset () with
             | Ok l ->
                 replied := List.length l;
                 List.iter (Apps.Pastry.learn caller) l
             | Error e -> Alcotest.failf "exchange failed: %s" (Rpc.error_to_string e)
           done));
    ignore (Engine.run eng)
  in
  exchanges 100;
  let n = 5_000 in
  let w0 = Gc.minor_words () in
  exchanges n;
  let per = (Gc.minor_words () -. w0) /. Float.of_int n in
  Alcotest.(check int) "17-node reply" 17 !replied;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per leafset exchange (bound 168)" per)
    true (per < 168.0)

(* {2 Cyclon} *)

let test_cyclon_mixes () =
  with_platform (fun _ _ ctl ->
      let n = 30 in
      let nodes = ref [] in
      let config = { Apps.Cyclon.default_config with period = 2.0; cache_size = 8; shuffle_length = 4 } in
      ignore
        (Controller.deploy ctl ~name:"cyclon"
           ~main:(Apps.Cyclon.app ~config ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep 120.0;
      Alcotest.(check int) "all registered" n (List.length !nodes);
      List.iter
        (fun c ->
          Alcotest.(check bool) "shuffled" true (Apps.Cyclon.shuffles_done c > 5);
          let nb = Apps.Cyclon.neighbors c in
          Alcotest.(check bool) "cache bounded" true (List.length nb <= 8);
          Alcotest.(check bool) "cache non-trivial" true (List.length nb >= 4);
          List.iter
            (fun x ->
              Alcotest.(check bool) "no self-loop" false
                (Addr.equal x.Apps.Node.addr (Apps.Cyclon.self c).Apps.Node.addr))
            nb)
        !nodes;
      (* the union graph is connected: BFS over undirected edges *)
      let addr_key a = Addr.to_string a in
      let adj = Hashtbl.create 64 in
      let add_edge a b =
        let add x y =
          let l = Option.value ~default:[] (Hashtbl.find_opt adj x) in
          if not (List.mem y l) then Hashtbl.replace adj x (y :: l)
        in
        add a b;
        add b a
      in
      List.iter
        (fun c ->
          let me = addr_key (Apps.Cyclon.self c).Apps.Node.addr in
          List.iter (fun x -> add_edge me (addr_key x.Apps.Node.addr)) (Apps.Cyclon.neighbors c))
        !nodes;
      let visited = Hashtbl.create 64 in
      let rec bfs = function
        | [] -> ()
        | x :: rest ->
            if Hashtbl.mem visited x then bfs rest
            else begin
              Hashtbl.replace visited x ();
              bfs (Option.value ~default:[] (Hashtbl.find_opt adj x) @ rest)
            end
      in
      bfs [ addr_key (Apps.Cyclon.self (List.hd !nodes)).Apps.Node.addr ];
      Alcotest.(check int) "overlay connected" n (Hashtbl.length visited))

(* {2 Epidemic} *)

let test_epidemic_coverage () =
  with_platform (fun _ _ ctl ->
      let n = 40 in
      let nodes = ref [] in
      ignore
        (Controller.deploy ctl ~name:"epidemic"
           ~main:
             (Apps.Epidemic.app
                ~config:{ Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = false }
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Random_subset 12) n));
      Env.sleep 5.0;
      Apps.Epidemic.broadcast (List.hd !nodes) "rumor-1";
      Env.sleep 30.0;
      let covered =
        List.length (List.filter (fun c -> Apps.Epidemic.has_received c "rumor-1") !nodes)
      in
      Alcotest.(check bool)
        (Printf.sprintf "epidemic covers nearly everyone (%d/%d)" covered n)
        true
        (covered >= n - 2);
      (* duplicate rumors are not re-forwarded *)
      Apps.Epidemic.broadcast (List.hd !nodes) "rumor-1";
      Env.sleep 10.0;
      List.iter
        (fun c ->
          Alcotest.(check int) "no duplicate delivery" 1
            (List.length (List.filter (String.equal "rumor-1") (Apps.Epidemic.received c))))
        !nodes)

(* One-way mode: same coverage as the RPC path, but every forward is a
   single notify — no reply traffic, no parked caller fiber per target. *)
let test_epidemic_oneway_coverage () =
  let n = 300 in
  let eng = Engine.create ~seed:91 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let addrs = Array.init n (fun i -> Addr.make i 9000) in
  let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true } in
  let nodes = Array.make n None in
  let env0 = ref None in
  for i = 0 to n - 1 do
    (* ring + three long chords: connected, sparse, fixed degree *)
    let peers = List.map (fun s -> addrs.((i + s) mod n)) [ 1; 7; 29; 113 ] in
    let env = Env.create net ~me:addrs.(i) ~nodes:peers in
    if i = 0 then env0 := Some env;
    Apps.Epidemic.app ~config ~register:(fun x -> nodes.(i) <- Some x) env
  done;
  (match (nodes.(0), !env0) with
  | Some origin, Some env ->
      ignore
        (Env.thread env ~name:"rumor-origin" (fun () ->
             Apps.Epidemic.broadcast origin "one-way"))
  | _ -> Alcotest.fail "origin not registered");
  ignore (Engine.run eng);
  let covered =
    Array.fold_left
      (fun acc nd ->
        match nd with
        | Some x when Apps.Epidemic.has_received x "one-way" -> acc + 1
        | _ -> acc)
      0 nodes
  in
  Alcotest.(check bool)
    (Printf.sprintf "one-way flood covers nearly everyone (%d/%d)" covered n)
    true
    (covered >= n - 3);
  (* fire-and-forget really is one-way: every message is a request, so the
     delivered count can't exceed nodes * fanout (no reply packets) *)
  let delivered = Net.messages_sent net - Net.messages_dropped net in
  Alcotest.(check bool)
    (Printf.sprintf "no reply traffic (%d msgs <= %d)" delivered (n * config.fanout))
    true
    (delivered <= n * config.fanout)

(* Footprint pin: what one deployed one-way epidemic instance keeps live
   before any rumour moves — its Env (sandbox, logger, RNG, RPC plumbing)
   plus the app (node record, handlers, bound port). This is the
   per-instance cost that bounds how many nodes one run can hold. The
   peer lists are built before the baseline; every instance stays
   reachable through the network's port table. *)
let test_epidemic_footprint () =
  let n = 10_000 in
  let eng = Engine.create ~seed:17 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let addrs = Array.init n (fun i -> Addr.make i 9000) in
  let peers = Array.init n (fun i -> List.map (fun s -> addrs.((i + s) mod n)) [ 1; 7; 29; 113 ]) in
  let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true } in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let base = live () in
  for i = 0 to n - 1 do
    Apps.Epidemic.app ~config ~register:ignore (Env.create net ~me:addrs.(i) ~nodes:peers.(i))
  done;
  let per_node = Float.of_int (live () - base) /. Float.of_int n in
  ignore (Sys.opaque_identity (net, peers));
  Alcotest.(check bool)
    (Printf.sprintf "%.1f live words per instance (bound 90)" per_node)
    true (per_node < 90.0)

(* Footprint pin: what one assembled Pastry + Dht_store node keeps live
   in a 10k ring before any request — its Env, the leafset, the routing
   rows it fills and the store's record, configured as a serve step
   configures it. Tables a node has not used yet (suspicion, store,
   in-flight, RTT estimates) and routing rows with no entry are not
   allocated. The ring is built before the baseline; every node stays
   reachable through the network's port table. *)
let test_pastry_dht_footprint () =
  let n = 10_000 in
  let eng = Engine.create ~seed:17 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let pcfg = Apps.Pastry.default_config in
  let spacing = Misc.pow2 pcfg.Apps.Pastry.bits / n in
  let ring = Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000)) in
  let config =
    {
      Apps.Dht_store.default_config with
      republish_interval = 0.0;
      serve_cost = 0.002;
      batching = true;
      p2c = true;
      admission = true;
    }
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let base = live () in
  for i = 0 to n - 1 do
    Apps.Pastry.assemble ~config:pcfg ~ring ~index:i
      ~register:(fun p -> ignore (Apps.Dht_store.create ~config p))
      (Env.create net ~me:ring.(i).Apps.Node.addr)
  done;
  let per_node = Float.of_int (live () - base) /. Float.of_int n in
  ignore (Sys.opaque_identity (net, ring));
  Alcotest.(check bool)
    (Printf.sprintf "%.1f live words per assembled node (bound 430)" per_node)
    true (per_node < 430.0)

(* {2 Distribution trees} *)

let test_trees_structure_and_completion () =
  with_platform (fun _ _ ctl ->
      let n = 15 in
      let nodes = ref [] in
      let config =
        { Apps.Trees.default_config with block_size = 64 * 1024; start_delay = 5.0 }
      in
      ignore
        (Controller.deploy ctl ~name:"trees"
           ~main:
             (Apps.Trees.app ~config ~file_size:(1024 * 1024)
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:Descriptor.All n));
      Env.sleep 60.0;
      Alcotest.(check int) "all registered" n (List.length !nodes);
      (* every non-source node appears exactly once as a child in each tree *)
      for tree = 0 to 1 do
        let child_count = Hashtbl.create 32 in
        List.iter
          (fun t ->
            List.iter
              (fun a ->
                let k = Addr.to_string a in
                Hashtbl.replace child_count k (1 + Option.value ~default:0 (Hashtbl.find_opt child_count k)))
              (Apps.Trees.children t ~tree))
          !nodes;
        Alcotest.(check int)
          (Printf.sprintf "tree %d spans all non-source nodes" tree)
          (n - 1) (Hashtbl.length child_count);
        Hashtbl.iter
          (fun _ c -> Alcotest.(check int) "each node has one parent" 1 c)
          child_count
      done;
      (* everyone finished and the source finished first *)
      List.iter
        (fun t ->
          Alcotest.(check int) "all blocks" (Apps.Trees.total_blocks t) (Apps.Trees.blocks_received t);
          Alcotest.(check bool) "completed" true (Apps.Trees.completion_time t <> None))
        !nodes;
      let source = List.find Apps.Trees.is_source !nodes in
      let t_source = Option.get (Apps.Trees.completion_time source) in
      List.iter
        (fun t ->
          if not (Apps.Trees.is_source t) then
            Alcotest.(check bool) "receivers complete after source" true
              (Option.get (Apps.Trees.completion_time t) >= t_source))
        !nodes)

(* {2 Scribe} *)

let scribe_platform n f =
  with_platform (fun eng net ctl ->
      let pastries = ref [] in
      let scribes = ref [] in
      let main env =
        Apps.Pastry.app ~config:pastry_test_config
          ~register:(fun p ->
            pastries := p :: !pastries;
            scribes := Apps.Scribe.create p :: !scribes)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"scribe" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      f eng net ctl !scribes)

let test_scribe_pubsub () =
  scribe_platform 20 (fun _ _ _ scribes ->
      let topic = Apps.Scribe.topic_of_name (List.hd scribes) "news" in
      let subscribers = List.filteri (fun i _ -> i < 10) scribes in
      List.iter (fun s -> Apps.Scribe.subscribe s ~topic) subscribers;
      Env.sleep 10.0;
      let publisher = List.nth scribes 15 in
      Apps.Scribe.publish publisher ~topic ~payload:"hello-world";
      Env.sleep 20.0;
      List.iteri
        (fun i s ->
          let got = List.exists (fun (t, p) -> t = topic && p = "hello-world") (Apps.Scribe.delivered s) in
          if i < 10 then
            Alcotest.(check bool) (Printf.sprintf "subscriber %d delivered" i) true got
          else
            Alcotest.(check bool) (Printf.sprintf "non-subscriber %d silent" i) false got)
        scribes)

let test_scribe_callbacks () =
  scribe_platform 12 (fun _ _ _ scribes ->
      let topic = Apps.Scribe.topic_of_name (List.hd scribes) "feed" in
      let s = List.nth scribes 3 in
      let got = ref [] in
      Apps.Scribe.on_deliver s (fun ~topic:_ ~payload -> got := payload :: !got);
      Apps.Scribe.subscribe s ~topic;
      Env.sleep 5.0;
      Apps.Scribe.publish (List.nth scribes 7) ~topic ~payload:"a";
      Env.sleep 10.0;
      Apps.Scribe.publish (List.nth scribes 7) ~topic ~payload:"b";
      Env.sleep 10.0;
      Alcotest.(check (list string)) "each event once, in order" [ "a"; "b" ] (List.rev !got))

(* {2 SplitStream} *)

let test_splitstream_delivers_content () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let streams = ref [] in
      let main env =
        Apps.Pastry.app
          ~config:{ pastry_test_config with bits = 32 }
          ~register:(fun p ->
            let sc = Apps.Scribe.create p in
            streams := Apps.Splitstream.create sc ~stripes:4 ~name:"video" :: !streams)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"splitstream" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let subscribers = List.filteri (fun i _ -> i > 0) !streams in
      List.iter Apps.Splitstream.subscribe_all subscribers;
      Env.sleep 15.0;
      let content = String.init 4096 (fun i -> Char.chr (65 + (i mod 26))) in
      Apps.Splitstream.send (List.hd !streams) ~content ~block_size:256;
      Env.sleep 30.0;
      let ok = ref 0 in
      List.iter
        (fun s ->
          match Apps.Splitstream.reassembled s with
          | Some c when String.equal c content -> incr ok
          | _ -> ())
        subscribers;
      Alcotest.(check bool)
        (Printf.sprintf "most subscribers got the exact content (%d/%d)" !ok (n - 1))
        true
        (!ok >= n - 3))

(* {2 Web cache} *)

let test_webcache_hits_and_lru () =
  with_platform (fun _ _ ctl ->
      let n = 12 in
      let caches = ref [] in
      let wc_config =
        { Apps.Webcache.default_config with max_entries = 20; ttl = 1200.0; origin_delay_mean = 1.0 }
      in
      let main env =
        Apps.Pastry.app ~config:pastry_test_config
          ~register:(fun p -> caches := Apps.Webcache.create ~config:wc_config p :: !caches)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"webcache" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let client = List.hd !caches in
      (* first access misses and is slow; the repeat hits and is fast *)
      let _, k1, d1 = Apps.Webcache.get client "http://example.org/a" in
      let v2, k2, d2 = Apps.Webcache.get client "http://example.org/a" in
      (match k1 with `Miss -> () | _ -> Alcotest.fail "expected first-access miss");
      (match k2 with `Hit -> () | _ -> Alcotest.fail "expected repeat hit");
      Alcotest.(check bool) "hit faster than miss" true (d2 < d1 /. 2.0);
      Alcotest.(check bool) "content served" true
        (String.length v2 > 0 && String.sub v2 0 11 = "content-of:");
      (* LRU bound holds under many distinct URLs *)
      for i = 0 to 99 do
        ignore (Apps.Webcache.get client (Printf.sprintf "http://example.org/%d" i))
      done;
      List.iter
        (fun c ->
          Alcotest.(check bool) "per-node cache bounded" true (Apps.Webcache.cached_entries c <= 20))
        !caches)

let test_webcache_ttl_expiry () =
  with_platform (fun _ _ ctl ->
      let n = 8 in
      let caches = ref [] in
      let wc_config = { Apps.Webcache.default_config with ttl = 60.0; origin_delay_mean = 0.5 } in
      let main env =
        Apps.Pastry.app ~config:pastry_test_config
          ~register:(fun p -> caches := Apps.Webcache.create ~config:wc_config p :: !caches)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"webcache" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let client = List.hd !caches in
      let _, k1, _ = Apps.Webcache.get client "u" in
      let _, k2, _ = Apps.Webcache.get client "u" in
      Env.sleep 120.0;
      let _, k3, _ = Apps.Webcache.get client "u" in
      (match (k1, k2, k3) with
      | `Miss, `Hit, `Miss -> ()
      | _ -> Alcotest.fail "TTL expiry did not force a refetch"))

(* {2 BitTorrent} *)

let test_bittorrent_swarm_completes () =
  with_platform ~hosts:12 (fun _ _ ctl ->
      let n = 12 in
      let nodes = ref [] in
      let config =
        {
          Apps.Bittorrent.default_config with
          piece_size = 64 * 1024;
          choke_interval = 5.0;
          optimistic_interval = 10.0;
          tracker_interval = 20.0;
          rpc_timeout = 20.0;
        }
      in
      ignore
        (Controller.deploy ctl ~name:"bittorrent"
           ~main:
             (Apps.Bittorrent.app ~config ~file_size:(2 * 1024 * 1024)
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      (* poll: stop as soon as the swarm is done, cap at 600 s *)
      let rec wait budget =
        if budget > 0.0 then begin
          Env.sleep 30.0;
          let all_done =
            List.length !nodes = n && List.for_all Apps.Bittorrent.complete !nodes
          in
          if not all_done then wait (budget -. 30.0)
        end
      in
      wait 600.0;
      Alcotest.(check int) "all registered" n (List.length !nodes);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "complete (%d/%d pieces)" (Apps.Bittorrent.pieces_have c)
               (Apps.Bittorrent.total_pieces c))
            true (Apps.Bittorrent.complete c);
          Alcotest.(check bool) "pieces on disk" true (Apps.Bittorrent.file_on_disk c))
        !nodes;
      let seed = List.find Apps.Bittorrent.is_initial_seed !nodes in
      Alcotest.(check bool) "seed uploaded" true (Apps.Bittorrent.uploaded_bytes seed > 0);
      (* leechers exchanged among themselves, not only with the seed *)
      let leecher_upload =
        List.fold_left
          (fun acc c -> if Apps.Bittorrent.is_initial_seed c then acc else acc + Apps.Bittorrent.uploaded_bytes c)
          0 !nodes
      in
      Alcotest.(check bool) "peer-to-peer exchange happened" true (leecher_upload > 0))

(* {2 Vivaldi network coordinates} *)

let test_vivaldi_predicts_rtts () =
  (* deploy coordinates on a wide-area testbed; after convergence the
     coordinate distance must predict true RTTs far better than a constant
     predictor *)
  Platform.run ~until:100_000.0 (Platform.create ~seed:71 (Platform.Planetlab 30)) (fun p ->
      let ctl = Platform.controller p and net = Platform.net p in
      let nodes = ref [] in
      let config = { Apps.Vivaldi.default_config with period = 2.0 } in
      ignore
        (Controller.deploy ctl ~name:"vivaldi"
           ~main:(Apps.Vivaldi.app ~config ~register:(fun v -> nodes := v :: !nodes))
           (Descriptor.make ~bootstrap:Descriptor.All 30));
      (* plenty of probe rounds to converge *)
      Env.sleep 600.0;
      List.iter
        (fun v -> Alcotest.(check bool) "nodes kept probing" true (Apps.Vivaldi.samples v > 50))
        !nodes;
      (* individual confidences bounce on jittery links; the median
         across the population must be low *)
      let errs = List.sort Float.compare (List.map Apps.Vivaldi.confidence_error !nodes) in
      let med_err = List.nth errs (List.length errs / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "median confidence error %.2f below 0.6" med_err)
        true (med_err < 0.6);
      (* compare predicted vs true RTT over all pairs *)
      let arr = Array.of_list !nodes in
      let n = Array.length arr in
      let rel_errors = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let predicted =
            Apps.Vivaldi.distance
              (Apps.Vivaldi.coordinate arr.(i))
              (Apps.Vivaldi.coordinate arr.(j))
          in
          let actual =
            Net.base_rtt net (Apps.Vivaldi.addr arr.(i)).Addr.host
              (Apps.Vivaldi.addr arr.(j)).Addr.host
          in
          rel_errors := (Float.abs (predicted -. actual) /. actual) :: !rel_errors
        done
      done;
      let sorted = List.sort Float.compare !rel_errors in
      let median = List.nth sorted (List.length sorted / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "median relative error %.0f%% below 40%%" (100.0 *. median))
        true (median < 0.40))

(* {2 DHT storage (replicated key-value on Pastry)} *)

let dht_kv_config =
  { Apps.Dht_store.default_config with republish_interval = 10.0; entry_ttl = 3600.0; rpc_timeout = 3.0 }

(* [f] gets the deployment's (pastry, store) pairs as a ref: nodes that
   join later are prepended to it. *)
let dht_nodes ?(kv_config = dht_kv_config) n f =
  with_platform ~hosts:12 (fun eng net ctl ->
      let nodes = ref [] in
      let config = { pastry_test_config with bits = 16 } in
      let main env =
        Apps.Pastry.app ~config
          ~register:(fun p -> nodes := (p, Apps.Dht_store.create ~config:kv_config p) :: !nodes)
          env
      in
      let dep =
        Controller.deploy ctl ~name:"dht-store" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
      in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      f eng net ctl dep nodes)

let dht_platform n f =
  dht_nodes n (fun eng net ctl dep nodes -> f eng net ctl dep (List.map snd !nodes))

let test_dht_put_get_roundtrip () =
  dht_platform 16 (fun _ _ _ _ stores ->
      let writer = List.hd stores and reader = List.nth stores 9 in
      let acks = Apps.Dht_store.put writer ~key:"alpha" ~value:"42" in
      Alcotest.(check int) "all replicas stored" 3 acks;
      Alcotest.(check (option string)) "read from another node" (Some "42")
        (Apps.Dht_store.get reader ~key:"alpha");
      Alcotest.(check (option string)) "missing key" None
        (Apps.Dht_store.get reader ~key:"nonexistent");
      (* overwrite *)
      ignore (Apps.Dht_store.put writer ~key:"alpha" ~value:"43");
      Alcotest.(check (option string)) "overwritten" (Some "43")
        (Apps.Dht_store.get reader ~key:"alpha");
      (* replicas live on multiple physical nodes *)
      let holders = List.length (List.filter (fun s -> Apps.Dht_store.stored_entries s > 0) stores) in
      Alcotest.(check bool) (Printf.sprintf "replicas spread (%d holders)" holders) true (holders >= 2))

let test_dht_survives_owner_crashes () =
  dht_platform 20 (fun _ _ _ dep stores ->
      let writer = List.hd stores in
      for i = 0 to 19 do
        ignore (Apps.Dht_store.put writer ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i))
      done;
      (* crash a quarter of the ring, wait for repair + republish *)
      List.iteri
        (fun i (_, a, _) -> if i mod 4 = 1 then Controller.crash_node dep a)
        (Controller.live_members dep);
      Env.sleep 60.0;
      let reader = List.find (fun s -> s != writer) stores in
      let found = ref 0 in
      for i = 0 to 19 do
        match Apps.Dht_store.get reader ~key:(Printf.sprintf "k%d" i) with
        | Some v when v = Printf.sprintf "v%d" i -> incr found
        | _ -> ()
      done;
      (* with 3 salted replicas on a 20-node ring, a couple of keys can
         land all their replicas on crashed nodes (or on one another) *)
      Alcotest.(check bool) (Printf.sprintf "data survives crashes (%d/20)" !found) true (!found >= 17))

let test_dht_data_migrates_on_join () =
  dht_platform 10 (fun _ _ _ dep stores ->
      let s = List.hd stores in
      for i = 0 to 9 do
        ignore (Apps.Dht_store.put s ~key:(Printf.sprintf "m%d" i) ~value:"x")
      done;
      (* grow the ring; after republish rounds the data is still readable
         even though ownership boundaries moved *)
      for _ = 1 to 5 do
        ignore (Controller.add_node dep)
      done;
      Env.sleep 90.0;
      let ok = ref 0 in
      for i = 0 to 9 do
        if Apps.Dht_store.get s ~key:(Printf.sprintf "m%d" i) = Some "x" then incr ok
      done;
      Alcotest.(check int) "all keys readable after joins" 10 !ok)

(* {3 The read-path owner memo} *)

let ring_dist a b =
  let d = Misc.ring_distance a b ~modulus:(1 lsl 16) in
  min d ((1 lsl 16) - d)

(* RPCs issued by the whole deployment: route hops plus fetches *)
let rpcs nodes = List.fold_left (fun a (p, _) -> a + Rpc.calls_issued (Apps.Pastry.node_env p)) 0 nodes

let owner_of (p, s) ~key i =
  fst (Option.get (Apps.Pastry.lookup p (Apps.Dht_store.replica_id s ~key i)))

(* The node farthest on the ring from replica 0 of [key], other than
   [writer]: it owns no replica 0 before or after a neighbour fails. *)
let far_reader nodes ~writer ~key =
  let rid = Apps.Dht_store.replica_id (snd writer) ~key 0 in
  let d (p, _) = ring_dist (Apps.Pastry.id p) rid in
  let others = List.filter (fun (_, s) -> s != snd writer) nodes in
  List.fold_left (fun best n -> if d n > d best then n else best) (List.hd others) others

let test_dht_memo_repeat_get () =
  dht_nodes 16 (fun _ _ _ _ nodes ->
      let nodes = !nodes in
      let writer = List.hd nodes in
      Alcotest.(check int) "stored" 3 (Apps.Dht_store.put (snd writer) ~key:"alpha" ~value:"42");
      let ((rp, reader) as r) = far_reader nodes ~writer ~key:"alpha" in
      let hops = snd (Option.get (Apps.Pastry.lookup rp (Apps.Dht_store.replica_id reader ~key:"alpha" 0))) in
      Alcotest.(check bool) "reader is not the owner" false
        (Apps.Node.equal (owner_of r ~key:"alpha" 0) (Apps.Pastry.self_node rp));
      let c0 = rpcs nodes in
      Alcotest.(check (option string)) "first get" (Some "42") (Apps.Dht_store.get reader ~key:"alpha");
      let c1 = rpcs nodes in
      Alcotest.(check int) "first get routes: hops + 1 fetch" (hops + 1) (c1 - c0);
      Alcotest.(check (option string)) "repeat get" (Some "42") (Apps.Dht_store.get reader ~key:"alpha");
      Alcotest.(check int) "repeat get: one fetch, no route" 1 (rpcs nodes - c1))

let test_dht_memo_owner_stopped () =
  dht_nodes 16 (fun _ _ _ dep nodes ->
      let nodes = !nodes in
      let writer = List.hd nodes in
      ignore (Apps.Dht_store.put (snd writer) ~key:"beta" ~value:"7");
      let ((_, reader) as r) = far_reader nodes ~writer ~key:"beta" in
      Alcotest.(check (option string)) "warm the memo" (Some "7") (Apps.Dht_store.get reader ~key:"beta");
      let dead = owner_of r ~key:"beta" 0 in
      Controller.crash_node dep dead.Apps.Node.addr;
      (* republish moves replica 0 to the next-closest live node *)
      Env.sleep 60.0;
      let timed () =
        let t0 = Env.now (Apps.Pastry.node_env (fst r)) and c0 = rpcs nodes in
        let v = Apps.Dht_store.get reader ~key:"beta" in
        (v, Env.now (Apps.Pastry.node_env (fst r)) -. t0, rpcs nodes - c0)
      in
      let v1, dt1, _ = timed () in
      Alcotest.(check (option string)) "get survives the stopped owner" (Some "7") v1;
      Alcotest.(check bool)
        (Printf.sprintf "the memo named the stopped owner (waited %.2f s)" dt1)
        true
        (dt1 >= dht_kv_config.Apps.Dht_store.rpc_timeout);
      let v2, dt2, calls2 = timed () in
      Alcotest.(check (option string)) "next get" (Some "7") v2;
      Alcotest.(check bool)
        (Printf.sprintf "the stopped owner's entry was replaced (%.2f s)" dt2)
        true
        (dt2 < dht_kv_config.Apps.Dht_store.rpc_timeout);
      Alcotest.(check int) "re-resolved owner serves in one RPC" 1 calls2)

let test_dht_memo_put_routes () =
  let kv_config = { dht_kv_config with Apps.Dht_store.republish_interval = 0.0 } in
  dht_nodes ~kv_config 10 (fun _ _ _ dep nodes ->
      let writer = List.hd !nodes in
      let keys = List.init 100 (Printf.sprintf "j%d") in
      (* every replica owner of every key is now in the writer's memo *)
      List.iter (fun key -> ignore (Apps.Dht_store.put (snd writer) ~key ~value:"old")) keys;
      ignore (Controller.add_node dep);
      Env.sleep 30.0;
      let np, ns = List.hd !nodes in
      let others = List.tl !nodes in
      (* a replica the newcomer is strictly closest to: before the join
         the memo named another owner *)
      let closer key i =
        let rid = Apps.Dht_store.replica_id ns ~key i in
        List.for_all
          (fun (p, _) -> ring_dist (Apps.Pastry.id p) rid > ring_dist (Apps.Pastry.id np) rid)
          others
      in
      let key =
        List.find (fun key -> List.exists (closer key) [ 0; 1; 2 ]) keys
      in
      Alcotest.(check int) "newcomer holds nothing yet" 0 (Apps.Dht_store.stored_entries ns);
      Alcotest.(check int) "put acknowledged" 3 (Apps.Dht_store.put (snd writer) ~key ~value:"new");
      Alcotest.(check int) "the put landed at the new owner" 1 (Apps.Dht_store.stored_entries ns))

let () =
  Alcotest.run "splay_apps"
    [
      ( "chord",
        [
          Alcotest.test_case "ring converges" `Quick test_chord_ring_converges;
          Alcotest.test_case "lookup correct" `Quick test_chord_lookup_correct;
          Alcotest.test_case "hops logarithmic" `Quick test_chord_hops_logarithmic;
          Alcotest.test_case "finger invariant" `Quick test_chord_fingers_exact;
          Alcotest.test_case "assemble routes correctly" `Quick
            test_chord_assemble_routes_correctly;
        ] );
      ( "chord_ft",
        [
          Alcotest.test_case "converges with leafsets" `Quick test_chord_ft_converges_and_replicates;
          Alcotest.test_case "survives failures" `Quick test_chord_ft_survives_failures;
        ] );
      ( "pastry",
        [
          Alcotest.test_case "converges" `Quick test_pastry_converges;
          Alcotest.test_case "lookup correct" `Quick test_pastry_lookup_correct;
          Alcotest.test_case "survives churn" `Quick test_pastry_survives_churn;
          Alcotest.test_case "proximity tables" `Quick test_pastry_proximity_prefers_close_entries;
          Alcotest.test_case "assemble routes correctly" `Quick
            test_pastry_assemble_routes_correctly;
          Alcotest.test_case "node reference minor words" `Quick test_node_reference_words;
          Alcotest.test_case "minor words per leafset exchange" `Quick test_leafset_exchange_words;
        ] );
      ("cyclon", [ Alcotest.test_case "mixes and stays connected" `Quick test_cyclon_mixes ]);
      ( "epidemic",
        [
          Alcotest.test_case "coverage" `Quick test_epidemic_coverage;
          Alcotest.test_case "one-way coverage" `Quick test_epidemic_oneway_coverage;
          Alcotest.test_case "footprint per instance" `Quick test_epidemic_footprint;
        ] );
      ("trees", [ Alcotest.test_case "structure and completion" `Quick test_trees_structure_and_completion ]);
      ( "scribe",
        [
          Alcotest.test_case "pubsub" `Quick test_scribe_pubsub;
          Alcotest.test_case "callbacks" `Quick test_scribe_callbacks;
        ] );
      ("splitstream", [ Alcotest.test_case "delivers content" `Quick test_splitstream_delivers_content ]);
      ( "webcache",
        [
          Alcotest.test_case "hits and lru" `Quick test_webcache_hits_and_lru;
          Alcotest.test_case "ttl expiry" `Quick test_webcache_ttl_expiry;
        ] );
      ("bittorrent", [ Alcotest.test_case "swarm completes" `Quick test_bittorrent_swarm_completes ]);
      ("vivaldi", [ Alcotest.test_case "predicts rtts" `Quick test_vivaldi_predicts_rtts ]);
      ( "dht_store",
        [
          Alcotest.test_case "put get roundtrip" `Quick test_dht_put_get_roundtrip;
          Alcotest.test_case "survives owner crashes" `Quick test_dht_survives_owner_crashes;
          Alcotest.test_case "data migrates on join" `Quick test_dht_data_migrates_on_join;
          Alcotest.test_case "memo: repeat get is one rpc" `Quick test_dht_memo_repeat_get;
          Alcotest.test_case "memo: stopped owner re-resolved" `Quick test_dht_memo_owner_stopped;
          Alcotest.test_case "memo: puts always route" `Quick test_dht_memo_put_routes;
          Alcotest.test_case "footprint per assembled node" `Quick test_pastry_dht_footprint;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          ([ prop_of_value_matches_old; prop_node_roundtrip; prop_insert_bounded; prop_learn_matches_old ]
          @ prop_message_types @ prop_argument_lists)
      );
    ]
