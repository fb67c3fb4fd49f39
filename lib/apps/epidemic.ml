module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Rng = Splay_sim.Rng

type config = { fanout : int; rpc_timeout : float; oneway : bool }

let default_config = { fanout = 6; rpc_timeout = 10.0; oneway = false }

type node = {
  cfg : config;
  env : Env.t;
  mutable seen : string list;
      (* every rumour seen, newest first; membership scans it — a node
         holds a handful of rumours, and a table would cost 22 words per
         node before the first one arrives *)
  e_rng : Rng.t;
}

let received t = t.seen
let has_received t rumor = List.mem rumor t.seen
let is_stopped t = Env.is_stopped t.env

(* The bootstrap list without this node; shared as is when it does not
   name this node (the common case), instead of copied per forward. *)
let peers t =
  let me = t.env.Env.me and nodes = t.env.Env.nodes in
  if List.exists (Addr.equal me) nodes then List.filter (fun a -> not (Addr.equal a me)) nodes
  else nodes

let p_rumor = Rpc.proc "epidemic.rumor" (Rpc.arg Codec.string) Codec.unit

(* Two forwarding modes. The acknowledged mode ([oneway = false]) spawns
   a fiber per target that blocks on the RPC reply — observable outcomes,
   but each in-flight forward parks a fiber until the reply or timeout.
   The one-way mode sends [Rpc.notify] straight from the receive path: no
   spawn, no parked fiber, no reply traffic — the shape that lets a
   single process push a rumor through a million nodes. Gossip needs no
   acks anyway: redundancy is the protocol's own reliability mechanism. *)
let forward t rumor =
  let targets = Rng.sample t.e_rng t.cfg.fanout (peers t) in
  (* the one-way fan-out shares one request between its targets *)
  if t.cfg.oneway then Rpc.notify t.env targets p_rumor rumor
  else
    List.iter
      (fun a ->
        ignore
          (Env.thread t.env (fun () ->
               ignore (Rpc.invoke t.env a ~timeout:t.cfg.rpc_timeout p_rumor rumor))))
      targets

let receive t rumor =
  if not (has_received t rumor) then begin
    t.seen <- rumor :: t.seen;
    forward t rumor
  end

let broadcast t rumor = receive t rumor

let app ?(config = default_config) ~register env =
  let t =
    {
      cfg = config;
      env;
      seen = [];
      e_rng = Rng.split env.Env.env_rng;
    }
  in
  register t;
  Rpc.handle env p_rumor (fun rumor -> receive t rumor)
