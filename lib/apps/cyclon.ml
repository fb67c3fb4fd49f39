module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Rng = Splay_sim.Rng

type config = {
  cache_size : int;
  shuffle_length : int;
  period : float;
  rpc_timeout : float;
  join_delay_per_position : float;
}

let default_config =
  { cache_size = 20; shuffle_length = 8; period = 10.0; rpc_timeout = 15.0; join_delay_per_position = 0.2 }

type entry = { node : Node.t; mutable age : int }

type node = {
  cfg : config;
  env : Env.t;
  me : Node.t;
  mutable cache : entry list;
  mutable n_shuffles : int;
  c_rng : Rng.t;
}

let self t = t.me
let neighbors t = List.map (fun e -> e.node) t.cache
let shuffles_done t = t.n_shuffles
let is_stopped t = Env.is_stopped t.env

(* A shuffle ships entries as immutable (node, age) pairs: the receiver
   builds its own mutable entries from them. *)
let entries = Codec.list (Codec.record2 "n" Node.ty "age" Codec.int)
let p_shuffle = Rpc.proc "cyclon.shuffle" (Rpc.arg entries) entries
let to_pairs = List.map (fun e -> (e.node, e.age))
let of_pairs = List.map (fun (node, age) -> { node; age })

(* Merge received entries into the cache: never ourselves, never
   duplicates (keep the fresher), evict entries we just sent away first,
   then oldest, to stay within c. *)
let merge t ~sent received =
  let received = List.filter (fun e -> not (Node.equal e.node t.me)) received in
  let add cache e =
    match List.find_opt (fun x -> Node.equal x.node e.node) cache with
    | Some existing ->
        if e.age < existing.age then existing.age <- e.age;
        cache
    | None -> e :: cache
  in
  let cache = List.fold_left add t.cache received in
  let cache =
    if List.length cache <= t.cfg.cache_size then cache
    else begin
      (* evict: first the entries we shipped in the shuffle, then oldest *)
      let was_sent e = List.exists (fun s -> Node.equal s.node e.node) sent in
      let sorted =
        List.stable_sort
          (fun a b ->
            match (was_sent a, was_sent b) with
            | true, false -> 1
            | false, true -> -1
            | _ -> Int.compare a.age b.age)
          cache
      in
      Splay_runtime.Misc.take t.cfg.cache_size sorted
    end
  in
  t.cache <- cache

let sample t k lst = Rng.sample t.c_rng k lst

let handle_shuffle t sent =
  let reply = sample t t.cfg.shuffle_length t.cache in
  merge t ~sent:reply (of_pairs sent);
  to_pairs reply

let shuffle t =
  (* age everybody, pick the oldest neighbor *)
  List.iter (fun e -> e.age <- e.age + 1) t.cache;
  match t.cache with
  | [] -> ()
  | cache ->
      let oldest = List.fold_left (fun a b -> if b.age > a.age then b else a) (List.hd cache) cache in
      t.cache <- List.filter (fun e -> not (Node.equal e.node oldest.node)) t.cache;
      let others = sample t (t.cfg.shuffle_length - 1) t.cache in
      let payload = { node = t.me; age = 0 } :: others in
      (match
         Rpc.invoke t.env oldest.node.Node.addr ~timeout:t.cfg.rpc_timeout p_shuffle
           (to_pairs payload)
       with
      | Ok reply ->
          t.n_shuffles <- t.n_shuffles + 1;
          merge t ~sent:payload (of_pairs reply)
      | Error _ -> () (* oldest neighbor dead: it stays evicted, which is the repair *))

let app ?(config = default_config) ~register env =
  let me = Node.self ~how:`Hash ~bits:30 env in
  let t =
    { cfg = config; env; me; cache = []; n_shuffles = 0; c_rng = Rng.split env.Env.env_rng }
  in
  register t;
  Rpc.handle env p_shuffle (handle_shuffle t);
  ignore (Env.periodic env config.period (fun () -> shuffle t));
  Env.sleep (Float.of_int env.Env.position *. config.join_delay_per_position);
  (* bootstrap: everyone starts with the rendezvous node in cache *)
  List.iter
    (fun a ->
      if not (Addr.equal a env.Env.me) then begin
        let n =
          Node.make ~id:(Splay_runtime.Crypto.hash_to_id (Addr.to_string a) ~bits:30) ~addr:a
        in
        t.cache <- { node = n; age = 0 } :: t.cache
      end)
    env.Env.nodes
