module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Misc = Splay_runtime.Misc

type config = {
  m : int;
  stabilize_interval : float;
  join_delay_per_position : float;
  id_assignment : [ `Random | `Hash ];
}

let default_config =
  { m = 24; stabilize_interval = 5.0; join_delay_per_position = 1.0; id_assignment = `Random }

type node = {
  cfg : config;
  env : Env.t;
  self : Node.t;
  mutable predecessor : Node.t option;
  finger : Node.t option array; (* finger.(0) is the successor *)
  mutable refresh : int; (* next finger to refresh, 1-based like the paper *)
}

let id t = t.self.Node.id
let successor t = t.finger.(0)
let predecessor t = t.predecessor
let fingers t = Array.copy t.finger
let is_stopped t = Env.is_stopped t.env
let node_env t = t.env

let modulus t = Misc.pow2 t.cfg.m

let between t x a b ~incl_lo ~incl_hi = Misc.between x a b ~modulus:(modulus t) ~incl_lo ~incl_hi

(* closest_preceding_node from Listing 2: highest finger between us and the
   target. *)
let closest_preceding_node t key =
  let rec scan i =
    if i < 0 then t.self
    else
      match t.finger.(i) with
      | Some f when between t f.Node.id t.self.Node.id key ~incl_lo:false ~incl_hi:false -> f
      | _ -> scan (i - 1)
  in
  scan (t.cfg.m - 1)

(* The RPC surface. *)
let p_find_successor =
  Rpc.proc "find_successor" (Rpc.args2 Codec.int Codec.int)
    (Codec.record2 "node" Node.ty "hops" Codec.int)

let p_predecessor = Rpc.proc "predecessor" Rpc.no_args (Codec.option Node.ty)
let p_notify = Rpc.proc "notify" (Rpc.arg Node.ty) Codec.unit

(* Base Chord's calls raise on failure, as the paper's [rpc.call]. *)
let call t dst p arg =
  match Rpc.invoke t.env dst.Node.addr p arg with Ok v -> v | Error e -> raise (Rpc.Rpc_error e)

(* find_successor from Listing 2, with a hop count threaded through for the
   route-length figures. Returns (responsible node, hops). *)
let find_successor t key ~hops =
  match t.finger.(0) with
  | Some succ when between t key t.self.Node.id succ.Node.id ~incl_lo:false ~incl_hi:true ->
      (succ, hops)
  | None -> (t.self, hops) (* alone on the ring *)
  | Some succ ->
      let n0 = closest_preceding_node t key in
      (* when no finger strictly precedes the key (fingers still cold),
         walk the ring through the successor — always makes progress,
         where answering ourselves would hand out wrong owners during the
         join phase *)
      let next = if Node.equal n0 t.self then succ else n0 in
      call t next p_find_successor (key, hops + 1)

let handle_find_successor t (key, hops) = find_successor t key ~hops

(* notify from Listing 1 *)
let notify t n0 =
  match t.predecessor with
  | None -> t.predecessor <- Some n0
  | Some p ->
      if between t n0.Node.id p.Node.id t.self.Node.id ~incl_lo:false ~incl_hi:false then
        t.predecessor <- Some n0

(* join from Listing 1 *)
let join t n0 =
  t.predecessor <- None;
  let succ, _ = call t n0 p_find_successor (t.self.Node.id, 0) in
  t.finger.(0) <- Some succ;
  call t succ p_notify t.self

(* stabilize from Listing 1: verify our successor's predecessor *)
let stabilize t =
  match t.finger.(0) with
  | None -> ()
  | Some succ ->
      let x = call t succ p_predecessor () in
      (match x with
      | Some x
        when between t x.Node.id t.self.Node.id succ.Node.id ~incl_lo:false ~incl_hi:false ->
          t.finger.(0) <- Some x
      | _ -> ());
      (match t.finger.(0) with
      | Some s -> call t s p_notify t.self
      | None -> ())

(* fix_fingers from Listing 1 *)
let fix_fingers t =
  t.refresh <- (t.refresh mod t.cfg.m) + 1;
  let target = Misc.ring_add t.self.Node.id (Misc.pow2 (t.refresh - 1)) ~modulus:(modulus t) in
  let n, _ = find_successor t target ~hops:0 in
  t.finger.(t.refresh - 1) <- Some n

(* check_predecessor from Listing 1 *)
let check_predecessor t =
  match t.predecessor with
  | Some p when not (Rpc.ping t.env Rpc.p_ping p.Node.addr) -> t.predecessor <- None
  | _ -> ()

let default_config_ref = default_config

(* The node's RPC surface, shared by the join-based [app] and the
   warm-start [assemble]: lookups route identically however the ring came
   to exist. *)
let serve t =
  Rpc.handle t.env p_find_successor (handle_find_successor t);
  Rpc.handle t.env p_predecessor (fun () -> t.predecessor);
  Rpc.handle t.env p_notify (fun n -> notify t n)

let app ?(config = default_config_ref) ~register env =
  let self = Node.self ~how:config.id_assignment ~bits:config.m env in
  let t =
    {
      cfg = config;
      env;
      self;
      predecessor = None;
      finger = Array.make config.m None;
      refresh = 0;
    }
  in
  register t;
  serve t;
  (* protect the periodic state updates against crashing the instance when
     a peer disappears mid-call: base Chord simply retries next period *)
  let guarded f () = try f t with Rpc.Rpc_error _ -> () in
  ignore (Env.periodic env config.stabilize_interval (guarded stabilize));
  ignore (Env.periodic env config.stabilize_interval (guarded check_predecessor));
  ignore (Env.periodic env config.stabilize_interval (guarded fix_fingers));
  (* staggered join: one node per join_delay, so a single ring forms *)
  Env.sleep (Float.of_int env.Env.position *. config.join_delay_per_position);
  match env.Env.nodes with
  | rendezvous :: _ when env.Env.position > 1 ->
      join t (Node.make ~id:0 ~addr:rendezvous)
  | _ ->
      (* create(): the first node is its own successor, so stabilization
         can splice later arrivals in (the paper's finger[1] = n) *)
      t.finger.(0) <- Some t.self

(* Warm start: construct the converged ring state directly instead of
   running staggered joins plus stabilization rounds. With [n] nodes the
   join protocol needs O(n) serialized joins and O(n * m) stabilizer
   firings before fingers are correct — at 100k nodes that is an
   infeasible event count, and it tests convergence, not routing. Here
   every pointer is computed from the full membership: predecessor and
   successor are the ring neighbours, finger k is the first node at or
   after self.id + 2^k (binary search), exactly the fixed point
   stabilize/fix_fingers converge to. No periodic processes are started —
   the ring is already at the fixed point, and 3 periodics per node is
   the difference between a 100k-node run fitting its event budget or
   not. *)
let assemble ?(config = default_config_ref) ~register ~ring ~index env =
  let n = Array.length ring in
  if n = 0 then invalid_arg "Chord.assemble: empty ring";
  if index < 0 || index >= n then invalid_arg "Chord.assemble: index out of range";
  let md = Misc.pow2 config.m in
  (* first node at or after [key] on the ring, wrapping past the top *)
  let succ_of key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ring.(mid).Node.id < key then lo := mid + 1 else hi := mid
    done;
    if !lo = n then ring.(0) else ring.(!lo)
  in
  let self = ring.(index) in
  let finger =
    Array.init config.m (fun k ->
        Some (succ_of (Misc.ring_add self.Node.id (Misc.pow2 k) ~modulus:md)))
  in
  let t =
    {
      cfg = config;
      env;
      self;
      predecessor = Some ring.((index + n - 1) mod n);
      finger;
      refresh = 0;
    }
  in
  register t;
  serve t

let lookup t key =
  match find_successor t key ~hops:0 with
  | n, hops -> Some (n, hops)
  | exception Rpc.Rpc_error _ -> None

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
