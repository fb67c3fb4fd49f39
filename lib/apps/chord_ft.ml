module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Misc = Splay_runtime.Misc

type config = {
  m : int;
  stabilize_interval : float;
  join_delay_per_position : float;
  rpc_timeout : float;
  suspect_threshold : int;
  leafset_size : int;
  proximity_fingers : bool;
  id_assignment : [ `Random | `Hash ];
}

let default_config =
  {
    m = 24;
    stabilize_interval = 2.0;
    join_delay_per_position = 1.0;
    rpc_timeout = 60.0;
    suspect_threshold = 2;
    leafset_size = 4;
    proximity_fingers = false;
    id_assignment = `Random;
  }

type node = {
  cfg : config;
  env : Env.t;
  self : Node.t;
  mutable succs : Node.t list; (* clockwise, nearest first; the leafset *)
  mutable preds : Node.t list; (* counter-clockwise, nearest first *)
  finger : Node.t option array;
  mutable refresh : int;
  misses : (int, int) Hashtbl.t; (* node id -> consecutive missed replies *)
  mutable n_suspected : int;
  mutable stranded : bool;
      (* every successor was suspected: only the last is left, and the
         node re-joins through its rendezvous at its next stabilization *)
}

let id t = t.self.Node.id
let successors t = t.succs
let is_stopped t = Env.is_stopped t.env
let suspected_count t = t.n_suspected

let modulus t = Misc.pow2 t.cfg.m
let between t x a b ~incl_lo ~incl_hi = Misc.between x a b ~modulus:(modulus t) ~incl_lo ~incl_hi
let dist_cw t a b = Misc.ring_distance a b ~modulus:(modulus t)

(* The last successor is never pruned: a node whose host was cut off
   suspects every peer, and with no successor left nothing would ever
   bring it back into the ring. It keeps the last one and re-joins. *)
let prune t n =
  let not_n x = not (Node.equal x n) in
  (match List.filter not_n t.succs with
  | [] when t.succs <> [] -> t.stranded <- true
  | succs -> t.succs <- succs);
  t.preds <- List.filter not_n t.preds;
  Array.iteri
    (fun i f -> match f with Some x when Node.equal x n -> t.finger.(i) <- None | _ -> ())
    t.finger

(* The suspect() function the paper omits for brevity: prune after a
   configurable number of missed replies. *)
let suspect t n =
  let k = 1 + Option.value ~default:0 (Hashtbl.find_opt t.misses n.Node.id) in
  if k >= t.cfg.suspect_threshold then begin
    Hashtbl.remove t.misses n.Node.id;
    t.n_suspected <- t.n_suspected + 1;
    prune t n
  end
  else Hashtbl.replace t.misses n.Node.id k

(* The RPC surface. *)
let p_find_successor =
  Rpc.proc "find_successor" (Rpc.args2 Codec.int Codec.int)
    (Codec.record2 "node" (Codec.option Node.ty) "hops" Codec.int)

let p_predecessor = Rpc.proc "predecessor" Rpc.no_args (Codec.option Node.ty)
let p_successors = Rpc.proc "successors" Rpc.no_args (Codec.list Node.ty)
let p_notify = Rpc.proc "notify" (Rpc.arg Node.ty) Codec.unit

let acall t n p arg =
  match Rpc.invoke t.env n.Node.addr ~timeout:t.cfg.rpc_timeout p arg with
  | Ok v ->
      Hashtbl.remove t.misses n.Node.id;
      Ok v
  | Error _ ->
      suspect t n;
      Error ()

(* Insert a peer into the leafsets, keeping them sorted by ring distance
   and bounded. *)
let learn t n =
  if not (Node.equal n t.self) then begin
    let insert lst ~dist =
      if List.exists (Node.equal n) lst then lst
      else
        List.sort (fun a b -> Int.compare (dist a.Node.id) (dist b.Node.id)) (n :: lst)
        |> Misc.take t.cfg.leafset_size
    in
    t.succs <- insert t.succs ~dist:(fun i -> dist_cw t t.self.Node.id i);
    t.preds <- insert t.preds ~dist:(fun i -> dist_cw t i t.self.Node.id)
  end

let first_successor t = match t.succs with [] -> None | s :: _ -> Some s

let closest_preceding_candidates t key =
  let cands = ref [] in
  Array.iter (function Some f -> cands := f :: !cands | None -> ()) t.finger;
  List.iter (fun s -> cands := s :: !cands) t.succs;
  let ok n = between t n.Node.id t.self.Node.id key ~incl_lo:false ~incl_hi:false in
  let uniq = List.sort_uniq Node.compare_by_id (List.filter ok !cands) in
  (* closest to the key first: maximal clockwise position before key *)
  List.sort (fun a b -> Int.compare (dist_cw t a.Node.id key) (dist_cw t b.Node.id key)) uniq

let find_successor t key ~hops =
  match first_successor t with
  | None -> Some (t.self, hops)
  | Some succ when between t key t.self.Node.id succ.Node.id ~incl_lo:false ~incl_hi:true ->
      Some (succ, hops)
  | Some _ ->
      (* try candidates closest-first, falling back as peers fail *)
      let rec attempt = function
        | [] -> Some (t.self, hops) (* nobody closer is alive: we answer *)
        | n0 :: rest -> (
            match acall t n0 p_find_successor (key, hops + 1) with
            | Ok (Some n, h) -> Some (n, h)
            | Ok (None, _) -> None
            | Error () -> attempt rest)
      in
      attempt (closest_preceding_candidates t key)

let handle_find_successor t (key, hops) =
  match find_successor t key ~hops with Some (n, h) -> (Some n, h) | None -> (None, 0)

let notify t n0 = learn t n0

let join t n0 =
  match acall t n0 p_find_successor (t.self.Node.id, 0) with
  | Ok (found, _) ->
      Option.iter (learn t) found;
      (match first_successor t with
      | Some succ -> ignore (acall t succ p_notify t.self)
      | None -> ())
  | Error () -> () (* rendezvous unreachable; the app-level join-retry loop tries again *)

(* Stabilize against the first live successor, and adopt its successor list
   (the leafset replication that rides along in fault-tolerant Chord). *)
let stabilize t =
  let rec with_first_live = function
    | [] -> ()
    | s :: rest -> (
        match acall t s p_predecessor () with
        | Error () -> with_first_live rest
        | Ok pred ->
            (match pred with
            | Some x
              when between t x.Node.id t.self.Node.id s.Node.id ~incl_lo:false ~incl_hi:false ->
                learn t x
            | _ -> ());
            (match acall t s p_successors () with
            | Ok l -> List.iter (learn t) l
            | Error () -> ());
            (match first_successor t with
            | Some s' -> ignore (acall t s' p_notify t.self)
            | None -> ()))
  in
  with_first_live t.succs

(* A joined node whose successors were all suspected asks its rendezvous
   again, the way it joined. *)
let rejoin t =
  match t.env.Env.nodes with
  | rendezvous :: _ when t.stranded && t.env.Env.position > 1 ->
      t.stranded <- false;
      join t (Node.make ~id:0 ~addr:rendezvous)
  | _ -> ()

let check_predecessors t =
  match t.preds with
  | [] -> ()
  | p :: _ -> if not (Rpc.ping t.env ~timeout:t.cfg.rpc_timeout Rpc.p_ping p.Node.addr) then suspect t p

(* Whether [a] is nearer this node than [b] by base RTT. *)
let closer t a b =
  Net.closer t.env.Env.net ~from:t.self.Node.addr.Addr.host a.Node.addr.Addr.host
    b.Node.addr.Addr.host

let fix_fingers t =
  t.refresh <- (t.refresh mod t.cfg.m) + 1;
  let target = Misc.ring_add t.self.Node.id (Misc.pow2 (t.refresh - 1)) ~modulus:(modulus t) in
  match find_successor t target ~hops:0 with
  | Some (n, _) when not (Node.equal n t.self) ->
      let choice =
        if not t.cfg.proximity_fingers then n
        else begin
          (* latency-aware fingers: any node past the target is a valid
             finger; among the owner and its successors still within the
             finger's span, keep the closest in the network *)
          let span_end =
            Misc.ring_add t.self.Node.id (Misc.pow2 (min (t.cfg.m - 1) t.refresh))
              ~modulus:(modulus t)
          in
          let candidates =
            match acall t n p_successors () with
            | Ok l ->
                n
                :: List.filter
                     (fun s -> between t s.Node.id target span_end ~incl_lo:true ~incl_hi:false)
                     l
            | Error () -> [ n ]
          in
          List.fold_left (fun best c -> if closer t c best then c else best)
            (List.hd candidates) candidates
        end
      in
      t.finger.(t.refresh - 1) <- Some choice
  | _ -> ()

let app ?(config = default_config) ~register env =
  let self = Node.self ~how:config.id_assignment ~bits:config.m env in
  let t =
    {
      cfg = config;
      env;
      self;
      succs = [];
      preds = [];
      finger = Array.make config.m None;
      refresh = 0;
      misses = Hashtbl.create 16;
      n_suspected = 0;
      stranded = false;
    }
  in
  register t;
  Rpc.handle env p_find_successor (handle_find_successor t);
  Rpc.handle env p_predecessor (fun () -> match t.preds with [] -> None | p :: _ -> Some p);
  Rpc.handle env p_successors (fun () -> t.succs);
  Rpc.handle env p_notify (fun n -> notify t n);
  ignore
    (Env.periodic env config.stabilize_interval (fun () ->
         rejoin t;
         stabilize t));
  ignore (Env.periodic env config.stabilize_interval (fun () -> check_predecessors t));
  ignore (Env.periodic env config.stabilize_interval (fun () -> fix_fingers t));
  Env.sleep (Float.of_int env.Env.position *. config.join_delay_per_position);
  match env.Env.nodes with
  | rendezvous :: _ when env.Env.position > 1 ->
      let rendezvous = Node.make ~id:0 ~addr:rendezvous in
      join t rendezvous;
      (* A join into a ring that is still repairing can time out (the
         recursive find_successor may stall on a not-yet-pruned dead hop
         inside its own deadline). A fault-tolerant node keeps trying —
         giving up here would leave it orphaned forever, with an empty
         leafset that stabilization can never grow. *)
      if t.succs = [] then
        ignore
          (Env.thread env ~name:"join-retry" (fun () ->
               let attempts = ref 0 in
               while t.succs = [] && !attempts < 60 do
                 incr attempts;
                 Env.sleep config.stabilize_interval;
                 if t.succs = [] then join t rendezvous
               done))
  | _ -> ()

let lookup t key = find_successor t key ~hops:0

let successor = first_successor

(* Same successor-order walk as {!Chord.ring_of}, over the head of the
   leafset — shared ground truth for the ring-consistency oracle. *)
let ring_of nodes =
  match List.sort (fun a b -> Int.compare (id a) (id b)) nodes with
  | [] -> []
  | first :: _ ->
      let by_id = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace by_id (id n) n) nodes;
      let rec walk acc n =
        match successor n with
        | None -> List.rev acc
        | Some s ->
            if s.Node.id = id first then List.rev acc
            else (
              match Hashtbl.find_opt by_id s.Node.id with
              | Some next when List.length acc <= List.length nodes -> walk (s.Node.id :: acc) next
              | _ -> List.rev acc)
      in
      walk [ id first ] first
