module Env = Splay_runtime.Env
module Sb_socket = Splay_runtime.Sb_socket

type config = { fanout : int; ntrees : int; block_size : int; start_delay : float }

let default_config = { fanout = 2; ntrees = 2; block_size = 128 * 1024; start_delay = 10.0 }

(* Block transfers are one-way bulk traffic: a dedicated data port and
   fire-and-forget messages, so the sender's uplink queue — not an RPC
   round-trip — paces the dissemination. *)
type Net.payload += Block of { tree : int; index : int }

let data_port_offset = 10_000

type node = {
  cfg : config;
  env : Env.t;
  members : Addr.t array; (* deployment order; index 0 is the source *)
  rank : int; (* our index in [members] *)
  nblocks : int;
  received : bool array;
  mutable n_received : int;
  mutable completed_at : float option;
}

let position t = t.rank + 1
let total_blocks t = t.nblocks
let blocks_received t = t.n_received
let completion_time t = t.completed_at
let is_source t = t.rank = 0

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

let data_addr a = Addr.make a.Addr.host (a.Addr.port + data_port_offset)

let forward t ~tree ~index =
  List.iter
    (fun child ->
      try
        Sb_socket.send t.env ~dst:(data_addr child) ~size:(t.cfg.block_size + 32)
          (Block { tree; index })
      with Sb_socket.Network_error _ -> ())
    (children t ~tree)

let receive t ~tree ~index =
  if index >= 0 && index < t.nblocks && not t.received.(index) then begin
    t.received.(index) <- true;
    t.n_received <- t.n_received + 1;
    if t.n_received = t.nblocks then t.completed_at <- Some (Env.now t.env);
    forward t ~tree ~index
  end

let app ?(config = default_config) ~file_size ~register env =
  let members = Array.of_list env.Env.nodes in
  if Array.length members = 0 then invalid_arg "Trees.app: deploy with bootstrap All";
  let nblocks = (file_size + config.block_size - 1) / config.block_size in
  let rank =
    let rec find i =
      if i >= Array.length members then invalid_arg "Trees.app: not in member list"
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
    }
  in
  register t;
  ignore
    (Sb_socket.udp env
       ~port:(env.Env.me.Addr.port + data_port_offset)
       (fun ~src:_ payload ->
         match payload with
         | Block { tree; index } ->
             ignore (Env.thread env (fun () -> receive t ~tree ~index))
         | _ -> ()));
  if t.rank = 0 then begin
    Env.sleep config.start_delay;
    t.completed_at <- Some (Env.now env);
    Array.iteri (fun i _ -> t.received.(i) <- true) t.received;
    t.n_received <- t.nblocks;
    (* push blocks round-robin across the trees; the uplink bandwidth
       queue paces the actual transmissions *)
    for index = 0 to t.nblocks - 1 do
      forward t ~tree:(index mod config.ntrees) ~index
    done
  end
