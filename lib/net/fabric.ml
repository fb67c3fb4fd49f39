(* One simulated deployment spread across engine partitions.

   {!Splay_sim.Par} knows engines, windows and mailboxes; this module
   adds the network layer: host placement (round-robin over host ids),
   one synthetic testbed + [Net.t] per partition, and the routing glue
   that turns a cross-partition [Net.send] into a mailbox post.

   Host state partitions cleanly because a testbed keeps it in columns
   indexed by host id ([Testbed.links]) and each side of a transfer
   only touches its own host's entries: partition [i]'s copy carries the
   authoritative uplink-busy clock for hosts homed on [i] (senders live
   there) and the authoritative downlink-busy clock for the same hosts
   (receivers live there too — [deliver_remote] runs on the
   destination's home partition). The other partitions' copies of those
   entries simply stay at zero. Host liveness is the one bit every copy
   would need; the parallel engine takes no churn or nemesis, so it
   stays up everywhere.

   Requires a latency model with a positive {!Latency.min_rtt}: the
   lookahead is [min_rtt / 2], the promise that even an instantly-sent
   message cannot cross partitions faster than one window. *)

module Engine = Splay_sim.Engine
module Par = Splay_sim.Par

type t = {
  par : Par.t;
  tbs : Testbed.t array;
  nets : Net.t array;
  parts : int;
  hosts : int;
}

let part_of t h = h mod t.parts

let create ?(seed = 42) ?latency ?bw ?proc_cost ~hosts ~parts () =
  if parts < 1 then invalid_arg "Fabric.create: parts must be >= 1";
  if hosts < 1 then invalid_arg "Fabric.create: hosts must be >= 1";
  let lat =
    match latency with
    | Some l -> l
    | None -> Latency.synthetic ~seed:(seed lxor 0x5bd1e9) ()
  in
  let look =
    match Latency.lookahead lat with
    | Some l when l > 0.0 -> l
    | _ ->
        invalid_arg
          (Printf.sprintf
             "Fabric.create: latency model %S has no positive min_rtt — Lognormal cannot bound \
              lookahead, and of_fn models must pass ~min_rtt explicitly"
             (Latency.name lat))
  in
  let par = Par.create ~seed ~lookahead:look ~parts () in
  let tbs =
    Array.init parts (fun i ->
        Testbed.synthetic ~latency:lat ?bw ?proc_cost ~hosts
          (Engine.rng (Par.engine par i)))
  in
  let nets = Array.init parts (fun i -> Net.create (Par.engine par i) tbs.(i)) in
  let t = { par; tbs; nets; parts; hosts } in
  Array.iteri
    (fun i net ->
      Net.set_remote net
        ~local:(fun h -> h mod parts = i)
        ~route:(fun ~src ~dst ~size ~arrival ~up_wait ~ctx payload ->
          let j = dst.Addr.host mod parts in
          Par.post par ~src:i ~dst:j ~at:arrival (fun () ->
              Net.deliver_remote nets.(j) ~size ~src ~dst ~up_wait ~ctx payload)))
    nets;
  t

let parts t = t.parts
let lookahead t = Par.lookahead t.par
let engine t i = Par.engine t.par i
let net_of_host t h = t.nets.(part_of t h)

let run ?domains t = Par.run ?domains t.par

let messages_sent t = Array.fold_left (fun acc n -> acc + Net.messages_sent n) 0 t.nets
let bytes_sent t = Array.fold_left (fun acc n -> acc + Net.bytes_sent n) 0 t.nets
let messages_dropped t = Array.fold_left (fun acc n -> acc + Net.messages_dropped n) 0 t.nets
