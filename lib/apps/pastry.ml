module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Misc = Splay_runtime.Misc
module Rng = Splay_sim.Rng

type config = {
  bits : int;
  b : int;
  leaf_size : int;
  stabilize_interval : float;
  rpc_timeout : float;
  suspect_threshold : int;
  join_delay_per_position : float;
  proximity : bool;
  per_hop_overhead : float;
  id_assignment : [ `Random | `Hash ];
}

let default_config =
  {
    bits = 32;
    b = 4;
    leaf_size = 16;
    stabilize_interval = 5.0;
    rpc_timeout = 30.0;
    suspect_threshold = 2;
    join_delay_per_position = 0.2;
    proximity = true;
    per_hop_overhead = 0.0;
    id_assignment = `Hash;
  }

let digits cfg = cfg.bits / cfg.b

(* Failure-detector state, created at the first suspicion: most nodes of
   a failure-free ring never suspect anyone. *)
type suspicion = {
  misses : (int, int) Hashtbl.t;
  (* death certificates: recently pruned ids are not re-learned from
     gossip until the certificate expires, or stale leafset exchanges
     would reinject them forever *)
  dead : (int, float) Hashtbl.t;
}

type node = {
  cfg : config;
  env : Env.t;
  self : Node.t;
  mutable left : Node.t list; (* counter-clockwise, nearest first *)
  mutable right : Node.t list; (* clockwise, nearest first *)
  table : Node.t array array;
      (* rows x 2^b; a row is the shared [||] until its first entry, and an
         empty slot holds [vacant] *)
  mutable suspicion : suspicion option;
  mutable bootstrap : Addr.t option;
  p_rng : Rng.t;
}

(* The empty routing-table slot: no member has a negative id, so it never
   equals a real node. *)
let vacant = Node.make ~id:(-1) ~addr:(Addr.make (-1) 0)

let slot t row col =
  let r = t.table.(row) in
  if Array.length r = 0 then vacant else r.(col)

let set_slot t row col n =
  if Array.length t.table.(row) = 0 then t.table.(row) <- Array.make (1 lsl t.cfg.b) vacant;
  t.table.(row).(col) <- n

let id t = t.self.Node.id
let addr t = t.self.Node.addr
let leafset t = t.left @ t.right
let halves t = (t.left, t.right)
let is_stopped t = Env.is_stopped t.env

let row_entries row acc =
  Array.fold_right (fun n acc -> if n == vacant then acc else n :: acc) row acc

let table_entries t = Array.fold_right row_entries t.table []

let modulus t = Misc.pow2 t.cfg.bits

(* The ring holds 2^bits ids, so the masked difference is the distance
   [Misc.ring_distance] computes with a [mod]. *)
let dist_cw t a b = (b - a) land (modulus t - 1)
let dist t a b = min (dist_cw t a b) (dist_cw t b a)

let digit t key row = (key lsr (t.cfg.bits - (t.cfg.b * (row + 1)))) land ((1 lsl t.cfg.b) - 1)

let rec prefix_from t a b row =
  if row < digits t.cfg && digit t a row = digit t b row then prefix_from t a b (row + 1) else row

let shared_prefix t a b = prefix_from t a b 0

(* Whether [a] is nearer this node than [b] by base RTT. *)
let closer t a b =
  Net.closer t.env.Env.net ~from:t.self.Node.addr.Addr.host a.Node.addr.Addr.host
    b.Node.addr.Addr.host

let all_known t =
  List.sort_uniq Node.compare_by_id (t.self :: (leafset t @ table_entries t))

(* Incorporate a peer: leafset halves stay sorted by ring distance and
   bounded; the routing-table slot prefers the lower-RTT candidate when
   proximity-aware construction is on (the locality optimization FreePastry
   also implements). *)
let now t = Splay_sim.Engine.now (Env.engine t.env)

let certified_dead t n =
  match t.suspicion with
  | None -> false
  | Some s -> (
      match Hashtbl.find_opt s.dead n.Node.id with
      | Some expiry when now t < expiry -> true
      | Some _ ->
          Hashtbl.remove s.dead n.Node.id;
          false
      | None -> false)

(* How far [id] lies from self on one leafset side: clockwise for the
   right half, counter-clockwise for the left. *)
let side_dist t right id =
  if right then dist_cw t t.self.Node.id id else dist_cw t id t.self.Node.id

let rec is_member n = function [] -> false | y :: rest -> Node.equal y n || is_member n rest

(* One leafset half with [n] placed in it, in one walk that decides
   membership and position together: [n], at distance [dn], goes before
   the first entry at least as far, and the half is cut at [k] entries.
   [Exit] means the half stays as it is: [n] is a member, or it falls
   past the cut. The copied prefix is consed on the way back, so nothing
   is allocated before an [Exit]. *)
let rec place t right n dn k = function
  | [] -> if k > 0 then [ n ] else raise_notrace Exit
  | y :: rest as l ->
      if Node.equal y n then raise_notrace Exit
      else if k = 0 then if is_member n rest then raise_notrace Exit else []
      else if side_dist t right y.Node.id >= dn then
        if is_member n rest then raise_notrace Exit else n :: Misc.take (k - 1) l
      else y :: place t right n dn (k - 1) rest

let learn t n =
  if (not (Node.equal n t.self)) && n.Node.id <> t.self.Node.id && not (certified_dead t n)
  then begin
    let half = t.cfg.leaf_size / 2 in
    (try t.right <- place t true n (side_dist t true n.Node.id) half t.right with Exit -> ());
    (try t.left <- place t false n (side_dist t false n.Node.id) half t.left with Exit -> ());
    let row = shared_prefix t t.self.Node.id n.Node.id in
    if row < digits t.cfg then begin
      let col = digit t n.Node.id row in
      let cur = slot t row col in
      if cur == vacant then begin
        (* routing state costs real memory; Fig. 8's slight growth *)
        (try Splay_runtime.Sandbox.alloc t.env.Env.sandbox 2048
         with Splay_runtime.Sandbox.Violation _ -> ());
        set_slot t row col n
      end
      else if (not (Node.equal cur n)) && t.cfg.proximity && closer t n cur then
        set_slot t row col n
    end
  end

let prune t n =
  let keep x = not (Node.equal x n) in
  t.left <- List.filter keep t.left;
  t.right <- List.filter keep t.right;
  Array.iter
    (fun row ->
      Array.iteri
        (fun i x ->
          if Node.equal x n then begin
            row.(i) <- vacant;
            Splay_runtime.Sandbox.free t.env.Env.sandbox 2048
          end)
        row)
    t.table

let suspect t n =
  let s =
    match t.suspicion with
    | Some s -> s
    | None ->
        let s = { misses = Hashtbl.create 16; dead = Hashtbl.create 16 } in
        t.suspicion <- Some s;
        s
  in
  let k = 1 + Option.value ~default:0 (Hashtbl.find_opt s.misses n.Node.id) in
  if k >= t.cfg.suspect_threshold then begin
    Hashtbl.remove s.misses n.Node.id;
    Hashtbl.replace s.dead n.Node.id (now t +. (10.0 *. t.cfg.stabilize_interval));
    prune t n
  end
  else Hashtbl.replace s.misses n.Node.id k

(* The RPC surface. *)
let p_route =
  Rpc.proc "p.route" (Rpc.args2 Codec.int Codec.int)
    (Codec.record2 "node" (Codec.option Node.ty) "hops" Codec.int)

let p_join = Rpc.proc "p.join" (Rpc.args2 Codec.int Codec.int) (Codec.list Node.ty)
let p_leafset = Rpc.proc "p.leafset" Rpc.no_args (Codec.list Node.ty)
let p_announce = Rpc.proc "p.announce" (Rpc.arg Node.ty) Codec.unit

let acall t n p arg =
  match Rpc.invoke t.env n.Node.addr ~timeout:t.cfg.rpc_timeout p arg with
  | Ok v ->
      Option.iter (fun s -> Hashtbl.remove s.misses n.Node.id) t.suspicion;
      Ok v
  | Error _ ->
      suspect t n;
      Error ()

(* Is the key within the span of our leafset? If so the owner is the
   numerically closest node among leafset + self. *)
let leafset_covers t key =
  match (t.left, t.right) with
  | [], [] -> true
  | _ ->
      let rec farthest = function
        | [ x ] -> x.Node.id
        | _ :: rest -> farthest rest
        | [] -> t.self.Node.id
      in
      let leftmost = farthest t.left in
      let rightmost = farthest t.right in
      Misc.between key leftmost rightmost ~modulus:(modulus t) ~incl_lo:true ~incl_hi:true

let closest_among t key nodes =
  List.fold_left
    (fun best n -> if dist t n.Node.id key < dist t best.Node.id key then n else best)
    t.self nodes

type decision = Deliver | Forward of Node.t

(* The Pastry routing decision. [excluded] lists next hops that already
   failed for this message (dead, or reported no route), so alternates are
   tried instead of looping on them. *)
let decide ?(excluded = []) t key =
  let usable n = not (List.exists (Node.equal n) excluded) in
  if leafset_covers t key then begin
    (* [closest_among] over the usable leafset, left half then right,
       without building the filtered list *)
    let closer best n =
      if usable n && dist t n.Node.id key < dist t best.Node.id key then n else best
    in
    let owner = List.fold_left closer (List.fold_left closer t.self t.left) t.right in
    if Node.equal owner t.self then Deliver else Forward owner
  end
  else begin
    let l = shared_prefix t t.self.Node.id key in
    let n = if l < digits t.cfg then slot t l (digit t key l) else vacant in
    if n != vacant && usable n then Forward n
    else begin
      (* rare case: any known node with at least as long a prefix and
         numerically closer to the key *)
      let my_d = dist t t.self.Node.id key in
      let better n =
        usable n
        && (not (Node.equal n t.self))
        && shared_prefix t n.Node.id key >= l
        && dist t n.Node.id key < my_d
      in
      match List.filter better (all_known t) with
      | [] -> Deliver (* best effort: nobody better is known *)
      | cands -> Forward (closest_among t key cands)
    end
  end

let max_hops = 64

(* Route one message, retrying alternates as next hops fail. *)
let rec route t key ~hops =
  if hops > max_hops then None
  else begin
    let rec attempts k excluded =
      if k = 0 then None
      else
        match decide t ~excluded key with
        | Deliver -> Some (t.self, hops)
        | Forward n -> (
            match acall t n p_route (key, hops + 1) with
            | Ok (Some owner, h) -> Some (owner, h)
            | Ok (None, _) | Error () -> attempts (k - 1) (n :: excluded))
    in
    attempts 6 []
  end

and handle_route t (key, hops) =
  if t.cfg.per_hop_overhead > 0.0 then begin
    let m = Testbed.service_mult (Net.testbed t.env.Env.net) t.self.Node.addr.Addr.host in
    Env.sleep (t.cfg.per_hop_overhead *. m)
  end;
  match route t key ~hops with Some (n, h) -> (Some n, h) | None -> (None, 0)

let lookup t key = route t key ~hops:0

(* Join: the request travels from the bootstrap node towards the
   newcomer's id; every hop contributes its leafset and the table rows the
   newcomer will need; the newcomer learns everything and announces
   itself. *)
let join_payload t xid =
  let l = shared_prefix t t.self.Node.id xid in
  let rows =
    List.concat (List.init (min (l + 1) (digits t.cfg)) (fun r -> row_entries t.table.(r) []))
  in
  t.self :: (rows @ leafset t)

let handle_join t (xid, hops) =
  let mine = join_payload t xid in
  let deeper =
    if hops > max_hops then []
    else
      match decide t xid with
      | Deliver -> []
      | Forward n -> ( match acall t n p_join (xid, hops + 1) with Ok l -> l | Error () -> [])
  in
  mine @ deeper

let announce t =
  let targets = List.filter (fun n -> not (Node.equal n t.self)) (all_known t) in
  List.iter
    (fun n -> ignore (acall t n p_announce t.self))
    targets

let join t bootstrap =
  match acall t bootstrap p_join (t.self.Node.id, 0) with
  | Ok l ->
      List.iter (learn t) l;
      announce t
  | Error () -> ()

(* Periodic maintenance: exchange leafsets with a random neighbor, check
   the closest ring neighbors are alive, probe a few table entries — and
   occasionally re-contact the original bootstrap node, which is what lets
   two halves of a healed partition find each other again instead of
   living on as split-brain rings. *)
let stabilize t =
  (match t.bootstrap with
  | Some b when (not (Addr.equal b t.self.Node.addr)) && Rng.chance t.p_rng 0.2 -> (
      match Rpc.invoke t.env b ~timeout:t.cfg.rpc_timeout p_leafset () with
      | Ok l -> List.iter (learn t) l
      | Error _ -> ())
  | _ -> ());
  (match leafset t with
  | [] -> ()
  | leaves -> (
      let peer = Rng.pick_list t.p_rng leaves in
      match acall t peer p_leafset () with
      | Ok l -> List.iter (learn t) l
      | Error () -> ()));
  let probe n =
    if not (Rpc.ping t.env ~timeout:t.cfg.rpc_timeout Rpc.p_ping n.Node.addr) then suspect t n
  in
  (match t.left with p :: _ -> probe p | [] -> ());
  (match t.right with s :: _ -> probe s | [] -> ());
  (* also probe random leafset members: failures further out in the
     leafset must be detected faster than gossip reinjects them *)
  (match leafset t with
  | [] -> ()
  | leaves ->
      for _ = 1 to min 4 (List.length leaves) do
        probe (Rng.pick_list t.p_rng leaves)
      done);
  match table_entries t with
  | [] -> ()
  | entries ->
      (* probe a few random entries per round so dead table slots are
         repaired within a handful of periods *)
      for _ = 1 to min 3 (List.length entries) do
        probe (Rng.pick_list t.p_rng entries)
      done

let serve t =
  Rpc.handle t.env p_route (handle_route t);
  Rpc.handle t.env p_join (handle_join t);
  Rpc.handle t.env p_leafset (fun () -> t.self :: leafset t);
  Rpc.handle t.env p_announce (fun n -> learn t n)

let app ?(config = default_config) ~register env =
  if config.bits mod config.b <> 0 then invalid_arg "Pastry: bits must be a multiple of b";
  let self = Node.self ~how:config.id_assignment ~bits:config.bits env in
  let t =
    {
      cfg = config;
      env;
      self;
      left = [];
      right = [];
      table = Array.make (digits config) [||];
      suspicion = None;
      bootstrap = (match env.Env.nodes with b :: _ -> Some b | [] -> None);
      p_rng = Rng.split env.Env.env_rng;
    }
  in
  register t;
  serve t;
  ignore (Env.periodic env config.stabilize_interval (fun () -> stabilize t));
  Env.sleep (Float.of_int env.Env.position *. config.join_delay_per_position);
  match env.Env.nodes with
  | rendezvous :: _ when env.Env.position > 1 -> join t (Node.make ~id:0 ~addr:rendezvous)
  | _ -> ()

(* Warm start, mirroring [Chord.assemble]: build the converged routing
   state directly from the full membership instead of running O(n)
   serialized joins plus stabilization rounds. The leafset halves are the
   [leaf_size/2] nearest ring neighbours on each side; routing-table slot
   (row [r], column [c]) covers ids sharing self's top [r] digits with
   digit [c] next, so it gets the first ring member inside that id range
   (binary search) — a fixed point of [learn] modulo proximity
   tie-breaking, which only affects locality, not correctness. No
   periodic processes are started and no [Sandbox] accounting is done:
   the assembled ring exists to serve application traffic (the DHT store,
   the web cache) at node counts where join-protocol convergence is the
   dominant — and irrelevant — cost. *)
let assemble ?(config = default_config) ~register ~ring ~index env =
  if config.bits mod config.b <> 0 then invalid_arg "Pastry: bits must be a multiple of b";
  let n = Array.length ring in
  if n = 0 then invalid_arg "Pastry.assemble: empty ring";
  if index < 0 || index >= n then invalid_arg "Pastry.assemble: index out of range";
  let self = ring.(index) in
  let half = min (config.leaf_size / 2) (n - 1) in
  let right = List.init half (fun k -> ring.((index + k + 1) mod n)) in
  let left = List.init half (fun k -> ring.((index + n - k - 1) mod n)) in
  (* first ring member with id >= key, or None past the top (no wrap:
     table ranges never cross zero) *)
  let first_at_or_after key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ring.(mid).Node.id < key then lo := mid + 1 else hi := mid
    done;
    if !lo = n then None else Some ring.(!lo)
  in
  let nd = digits config in
  let cols = 1 lsl config.b in
  let table =
    Array.init nd (fun r ->
        let span = config.bits - (config.b * (r + 1)) in
        let prefix = self.Node.id lsr (span + config.b) in
        let own = (self.Node.id lsr span) land (cols - 1) in
        (* deep rows of a large ring are nearly all empty: a row is
           allocated only when a member falls in one of its ranges *)
        let row = ref [||] in
        for c = 0 to cols - 1 do
          if c <> own then begin
            let base = ((prefix lsl config.b) lor c) lsl span in
            match first_at_or_after base with
            | Some m when m.Node.id < base + (1 lsl span) ->
                if Array.length !row = 0 then row := Array.make cols vacant;
                !row.(c) <- m
            | Some _ | None -> ()
          end
        done;
        !row)
  in
  let t =
    {
      cfg = config;
      env;
      self;
      left;
      right;
      table;
      suspicion = None;
      bootstrap = None;
      (* private stream derived from the id, not split from [env_rng]:
         assemble must not perturb the env's stream relative to runs that
         don't use it *)
      p_rng = Rng.create (self.Node.id lxor 0x7A57E1);
    }
  in
  register t;
  serve t

(* {2 Hooks for layered applications} *)

let next_hop t key = match decide t key with Deliver -> None | Forward n -> Some n
let report_failure t n = suspect t n
let node_env t = t.env
let self_node t = t.self
let config_of t = t.cfg
