module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Sb_fs = Splay_runtime.Sb_fs
module Misc = Splay_runtime.Misc
module Rng = Splay_sim.Rng

type config = {
  piece_size : int;
  swarm_sample : int;
  max_peers : int;
  regular_slots : int;
  choke_interval : float;
  optimistic_interval : float;
  tracker_interval : float;
  workers : int;
  rpc_timeout : float;
}

let default_config =
  {
    piece_size = 64 * 1024;
    swarm_sample = 20;
    max_peers = 30;
    regular_slots = 3;
    choke_interval = 10.0;
    optimistic_interval = 30.0;
    tracker_interval = 60.0;
    workers = 4;
    rpc_timeout = 60.0;
  }

type peer = {
  pa : Addr.t;
  mutable their_have : bool array;
  mutable we_choke : bool;
  mutable optimistic : bool;
  mutable bytes_from : int; (* downloaded from them since last choke round *)
  mutable last_request_at : float; (* they asked us recently => interested *)
}

type node = {
  cfg : config;
  env : Env.t;
  npieces : int;
  have : bool array;
  mutable n_have : int;
  fs : Sb_fs.t;
  peers : (Addr.t, peer) Hashtbl.t;
  mutable inflight : int list; (* pieces currently being requested *)
  mutable completed_at : float option;
  seed : bool;
  tracker : Addr.t option; (* None when we are the tracker *)
  mutable swarm : Addr.t list; (* tracker-side peer registry *)
  mutable up_bytes : int;
  b_rng : Rng.t;
}

let total_pieces t = t.npieces
let pieces_have t = t.n_have
let complete t = t.n_have = t.npieces
let completion_time t = t.completed_at
let is_initial_seed t = t.seed
let uploaded_bytes t = t.up_bytes
let is_stopped t = Env.is_stopped t.env

let piece_path i = Printf.sprintf "chunks/%06d" i

(* A peer's address travels as the string "host:port". *)
let addr =
  {
    Codec.size = (fun a -> 3 + Addr.decimal_length a.Addr.host + Addr.decimal_length a.Addr.port);
    to_value = (fun a -> Codec.String (Addr.to_string a));
    of_value =
      (fun v ->
        match List.map int_of_string_opt (String.split_on_char ':' (Codec.to_string v)) with
        | [ Some h; Some p ] -> Addr.make h p
        | _ -> raise (Codec.Parse_error "bad address"));
  }

let file_on_disk t =
  let rec check i =
    i >= t.npieces
    || (Option.value ~default:0 (Sb_fs.file_size t.fs (piece_path i)) > 0 && check (i + 1))
  in
  check 0

let bitfield_to_string have =
  String.init (Array.length have) (fun i -> if have.(i) then '1' else '0')

let bitfield_of_string s = Array.init (String.length s) (fun i -> s.[i] = '1')

let get_peer t a =
  match Hashtbl.find_opt t.peers a with
  | Some p -> Some p
  | None ->
      if Hashtbl.length t.peers >= t.cfg.max_peers || Addr.equal a t.env.Env.me then None
      else begin
        let p =
          {
            pa = a;
            their_have = Array.make t.npieces false;
            we_choke = true;
            optimistic = false;
            bytes_from = 0;
            last_request_at = -1e9;
          }
        in
        Hashtbl.replace t.peers a p;
        Some p
      end

let drop_peer t a = Hashtbl.remove t.peers a

(* {2 Piece data on disk} *)

let piece_len t i =
  (* last piece may be short; we only track sizes, content is synthetic *)
  ignore i;
  t.cfg.piece_size

let store_piece t i =
  if not t.have.(i) then begin
    (try
       let f = Sb_fs.open_file t.fs (piece_path i) ~mode:`Write in
       Sb_fs.write f (String.make 64 'x');
       (* marker block: we account transfer sizes on the wire, not in RAM *)
       Sb_fs.close f
     with Sb_fs.Fs_error _ -> ());
    t.have.(i) <- true;
    t.n_have <- t.n_have + 1;
    if complete t && t.completed_at = None then t.completed_at <- Some (Env.now t.env)
  end

(* {2 RPC handlers} *)

(* A piece request's answer: [{"choked": true}] while the peer chokes us,
   [{"choked": false, "missing": true}] when it lacks the piece, else the
   piece body as [{"choked": false, "data": ...}]. *)
let piece_to_value = function
  | `Choked -> Codec.Assoc [ ("choked", Codec.Bool true) ]
  | `Missing -> Codec.Assoc [ ("choked", Codec.Bool false); ("missing", Codec.Bool true) ]
  | `Data d -> Codec.Assoc [ ("choked", Codec.Bool false); ("data", Codec.String d) ]

let piece =
  {
    (* the frame around the body: {"choked":false,"data":} *)
    Codec.size =
      (function `Data d -> 24 + Codec.string.size d | r -> Codec.encoded_size (piece_to_value r));
    to_value = piece_to_value;
    of_value =
      (fun v ->
        match Codec.member "choked" v with
        | Codec.Bool true -> `Choked
        | _ -> (
            match Codec.member "data" v with
            | Codec.String d -> `Data d
            | _ | (exception Codec.Parse_error _) -> `Missing));
  }

let p_announce = Rpc.proc "bt.announce" (Rpc.arg addr) (Codec.list addr)
let p_bitfield = Rpc.proc "bt.bitfield" (Rpc.arg addr) Codec.string
let p_have = Rpc.proc "bt.have" (Rpc.args2 addr Codec.int) Codec.unit
let p_request = Rpc.proc "bt.request" (Rpc.args2 addr Codec.int) piece

let handle_announce t a =
  if not (List.exists (Addr.equal a) t.swarm) then t.swarm <- a :: t.swarm;
  let sample = Rng.sample t.b_rng t.cfg.swarm_sample t.swarm in
  List.filter (fun x -> not (Addr.equal x a)) sample

let handle_bitfield t a =
  ignore (get_peer t a);
  bitfield_to_string t.have

let handle_have t (a, i) =
  match get_peer t a with
  | Some p when i >= 0 && i < t.npieces -> p.their_have.(i) <- true
  | _ -> ()

let handle_request t (a, i) =
  match get_peer t a with
  | None -> `Choked
  | Some p ->
      p.last_request_at <- Env.now t.env;
      if p.we_choke then `Choked
      else if i < 0 || i >= t.npieces || not t.have.(i) then `Missing
      else begin
        t.up_bytes <- t.up_bytes + piece_len t i;
        (* the piece body: sized payload so the bandwidth model applies *)
        `Data (String.make (piece_len t i) 'x')
      end

(* {2 Leecher machinery} *)

let announce t =
  match t.tracker with
  | None -> ()
  | Some tracker -> (
      match Rpc.invoke t.env tracker ~timeout:t.cfg.rpc_timeout p_announce t.env.Env.me with
      | Ok l ->
          List.iter
            (fun a ->
              match get_peer t a with
              | Some p when Array.for_all not p.their_have -> (
                  (* new acquaintance: swap bitfields *)
                  match Rpc.invoke t.env a ~timeout:t.cfg.rpc_timeout p_bitfield t.env.Env.me with
                  | Ok bf -> p.their_have <- bitfield_of_string bf
                  | Error _ -> drop_peer t a)
              | _ -> ())
            l
      | Error _ -> ())

(* Rarest-first: among pieces we lack and some peer has, pick the one with
   the fewest holders (random tie-break). *)
let pick_piece t =
  let counts = Array.make t.npieces 0 in
  Hashtbl.iter
    (fun _ p -> Array.iteri (fun i b -> if b then counts.(i) <- counts.(i) + 1) p.their_have)
    t.peers;
  let best = ref None in
  Array.iteri
    (fun i c ->
      if (not t.have.(i)) && (not (List.mem i t.inflight)) && c > 0 then
        match !best with
        | Some (_, bc) when bc < c -> ()
        | Some (_, bc) when bc = c && Rng.bool t.b_rng -> ()
        | _ -> best := Some (i, c))
    counts;
  Option.map fst !best

let holders t i =
  Hashtbl.fold (fun _ p acc -> if p.their_have.(i) then p :: acc else acc) t.peers []

let request_piece t i =
  t.inflight <- i :: t.inflight;
  Fun.protect
    ~finally:(fun () -> t.inflight <- List.filter (fun x -> x <> i) t.inflight)
    (fun () ->
      let rec try_peers = function
        | [] -> false
        | p :: rest -> (
            match Rpc.invoke t.env p.pa ~timeout:t.cfg.rpc_timeout p_request (t.env.Env.me, i) with
            | Ok (`Data data) ->
                p.bytes_from <- p.bytes_from + String.length data;
                store_piece t i;
                true
            | Ok (`Choked | `Missing) -> try_peers rest
            | Error _ ->
                drop_peer t p.pa;
                try_peers rest)
      in
      let hs = holders t i in
      let shuffled = Rng.sample t.b_rng (List.length hs) hs in
      ignore (try_peers shuffled))

let notify_have t i =
  Hashtbl.iter
    (fun a _ ->
      ignore
        (Env.thread t.env (fun () ->
             ignore (Rpc.invoke t.env a ~timeout:t.cfg.rpc_timeout p_have (t.env.Env.me, i)))))
    t.peers

let download_worker t =
  while not (complete t) do
    match pick_piece t with
    | None -> Env.sleep 2.0 (* nothing requestable yet *)
    | Some i ->
        let before = t.have.(i) in
        request_piece t i;
        if t.have.(i) && not before then notify_have t i
  done

(* Tit-for-tat: unchoke the peers that gave us the most since the last
   round, plus one optimistic slot; a seed reciprocates by recent interest
   instead (it downloads nothing). *)
let choke_round t =
  let peers = Hashtbl.fold (fun _ p acc -> p :: acc) t.peers [] in
  let interested p = Env.now t.env -. p.last_request_at < 3.0 *. t.cfg.choke_interval in
  let score p = if complete t then (if interested p then 1 else 0) else p.bytes_from in
  let ranked = List.sort (fun a b -> Int.compare (score b) (score a)) peers in
  let keep = Misc.take t.cfg.regular_slots ranked in
  List.iter
    (fun p ->
      p.we_choke <- not (List.memq p keep || p.optimistic);
      p.bytes_from <- 0)
    peers

let optimistic_round t =
  let peers = Hashtbl.fold (fun _ p acc -> p :: acc) t.peers [] in
  List.iter (fun p -> p.optimistic <- false) peers;
  match peers with
  | [] -> ()
  | _ ->
      let p = Rng.pick_list t.b_rng peers in
      p.optimistic <- true;
      p.we_choke <- false


let app ?(config = default_config) ~file_size ~register env =
  let npieces = max 1 ((file_size + config.piece_size - 1) / config.piece_size) in
  let seed = env.Env.position = 1 in
  let tracker =
    match env.Env.nodes with
    | tr :: _ when not (Addr.equal tr env.Env.me) -> Some tr
    | _ -> None
  in
  let t =
    {
      cfg = config;
      env;
      npieces;
      have = Array.make npieces seed;
      n_have = (if seed then npieces else 0);
      fs = Sb_fs.create env;
      peers = Hashtbl.create 32;
      inflight = [];
      completed_at = (if seed then Some 0.0 else None);
      seed;
      tracker;
      (* the tracker seeds its own registry with itself: it is also the
         initial seed of the swarm *)
      swarm = (if tracker = None then [ env.Env.me ] else []);
      up_bytes = 0;
      b_rng = Rng.split env.Env.env_rng;
    }
  in
  register t;
  if seed then
    for i = 0 to npieces - 1 do
      try
        let f = Sb_fs.open_file t.fs (piece_path i) ~mode:`Write in
        Sb_fs.write f (String.make 64 'x');
        Sb_fs.close f
      with Sb_fs.Fs_error _ -> ()
    done;
  Rpc.handle env p_announce (handle_announce t);
  Rpc.handle env p_bitfield (handle_bitfield t);
  Rpc.handle env p_have (handle_have t);
  Rpc.handle env p_request (handle_request t);
  ignore (Env.periodic env config.choke_interval (fun () -> choke_round t));
  ignore (Env.periodic env config.optimistic_interval (fun () -> optimistic_round t));
  ignore (Env.periodic env config.tracker_interval (fun () -> announce t));
  (* initial contact, then the download workers *)
  Env.sleep (0.1 *. Float.of_int env.Env.position);
  announce t;
  optimistic_round t;
  choke_round t;
  if not seed then
    for _ = 1 to config.workers do
      ignore (Env.thread env (fun () -> download_worker t))
    done
