module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env

type config = {
  fanout : int;
  ntrees : int;
  block_size : int;
  start_delay : float;
  rpc_timeout : float;
}

let default_config =
  { fanout = 2; ntrees = 2; block_size = 128 * 1024; start_delay = 10.0; rpc_timeout = 120.0 }

type node = {
  cfg : config;
  env : Env.t;
  members : Addr.t array;
  rank : int;
  nblocks : int;
  received : bool array;
  mutable n_received : int;
  mutable completed_at : float option;
  forward_queue : (int * int) Splay_sim.Channel.t; (* (tree, index) *)
}

let position t = t.rank + 1
let completion_time t = t.completed_at

(* Tree [k] rotates the non-source members by k/ntrees of the population,
   so interior nodes of one tree are mostly leaves of the others (the
   SplitStream property, by construction). The source is not part of any
   tree: it feeds each tree's root, so its uplink carries the file once. *)
let member_of_slot t ~tree ~slot =
  let n = Array.length t.members - 1 in
  let offset = tree * n / t.cfg.ntrees in
  t.members.(1 + ((slot + offset) mod n))

let my_slot t ~tree =
  let n = Array.length t.members - 1 in
  let offset = tree * n / t.cfg.ntrees in
  if t.rank = 0 then -1 else ((t.rank - 1) - offset + n) mod n

let children t ~tree =
  let n = Array.length t.members - 1 in
  if t.rank = 0 then [ member_of_slot t ~tree ~slot:0 ]
  else begin
    let slot = my_slot t ~tree in
    let first = (t.cfg.fanout * slot) + 1 in
    List.init t.cfg.fanout (fun i -> first + i)
    |> List.filter (fun s -> s < n)
    |> List.map (fun s -> member_of_slot t ~tree ~slot:s)
  end

let receive t ~tree ~index =
  if index >= 0 && index < t.nblocks && not t.received.(index) then begin
    t.received.(index) <- true;
    t.n_received <- t.n_received + 1;
    if t.n_received = t.nblocks then t.completed_at <- Some (Env.now t.env);
    Splay_sim.Channel.send t.forward_queue (tree, index)
  end

(* A block: its tree, its index and its body. *)
let p_block = Rpc.proc "crcp.block" (Rpc.args3 Codec.int Codec.int Codec.string) Codec.unit

(* The single forwarding loop: one block, one child at a time, each send
   acknowledged before the next starts — CRCP's sequential discipline. *)
let forwarder t =
  while true do
    let tree, index = Splay_sim.Channel.recv t.forward_queue in
    List.iter
      (fun child ->
        ignore
          (Rpc.invoke t.env child ~timeout:t.cfg.rpc_timeout p_block
             (tree, index, String.make t.cfg.block_size 'x')))
      (children t ~tree)
  done

let app ?(config = default_config) ~file_size ~register env =
  let members = Array.of_list env.Env.nodes in
  if Array.length members = 0 then invalid_arg "Crcp.app: deploy with bootstrap All";
  let nblocks = (file_size + config.block_size - 1) / config.block_size in
  let rank =
    let rec find i =
      if i >= Array.length members then invalid_arg "Crcp.app: not in member list"
      else if Addr.equal members.(i) env.Env.me then i
      else find (i + 1)
    in
    find 0
  in
  let t =
    {
      cfg = config;
      env;
      members;
      rank;
      nblocks;
      received = Array.make nblocks false;
      n_received = 0;
      completed_at = None;
      forward_queue = Splay_sim.Channel.create ();
    }
  in
  register t;
  Rpc.handle env p_block (fun (tree, index, _body) -> receive t ~tree ~index);
  ignore (Env.thread env (fun () -> forwarder t));
  if t.rank = 0 then begin
    Env.sleep config.start_delay;
    t.completed_at <- Some (Env.now env);
    for i = 0 to nblocks - 1 do
      t.received.(i) <- true
    done;
    t.n_received <- nblocks;
    for index = 0 to nblocks - 1 do
      Splay_sim.Channel.send t.forward_queue (index mod config.ntrees, index)
    done
  end
