module Engine = Splay_sim.Engine
module Ivar = Splay_sim.Ivar
module Channel = Splay_sim.Channel

exception Stream_error of string

(* Segments carry a globally unique connection key (initiator address +
   connection counter) and a sequence number; the receive side reassembles
   in order, so application code sees TCP semantics even though the
   underlying network may deliver with arbitrary jitter. *)
type Net.payload +=
  | Syn of { ckey : string; reply_port : int }
  | Syn_ack of { ckey : string }
  | Syn_refused of { ckey : string }
  | Seg of { ckey : string; seq : int; data : string }
  | Fin of { ckey : string }

type item = Data of string | Eof

type t = {
  env : Env.t;
  ckey : string;
  data_dst : Addr.t; (* where our segments go *)
  mutable next_send : int;
  mutable next_recv : int;
  held : (int, string) Hashtbl.t; (* out-of-order segments *)
  inbox : item Channel.t;
  mutable open_ : bool;
  mutable fin_sent : bool;
}

(* Per-environment dispatcher state, created lazily for both listeners and
   connectors. Keyed by the env's address; stale entries from a previous
   engine (tests create many) are replaced on physical mismatch. *)
type dispatcher = {
  d_env : Env.t;
  conns : (string, t) Hashtbl.t;
  accepts : (int, t -> unit) Hashtbl.t; (* listen port -> callback *)
  handshakes : (string, (unit, string) result Ivar.t) Hashtbl.t;
  mutable next_cid : int;
}

let dispatchers : (string, dispatcher) Hashtbl.t = Hashtbl.create 16

let stream_port_offset = 25_000

let deliver conn seq data =
  if conn.open_ || Hashtbl.length conn.held > 0 then begin
    if seq >= conn.next_recv then Hashtbl.replace conn.held seq data;
    let rec drain () =
      match Hashtbl.find_opt conn.held conn.next_recv with
      | Some d ->
          Hashtbl.remove conn.held conn.next_recv;
          conn.next_recv <- conn.next_recv + 1;
          Channel.send conn.inbox (Data d);
          drain ()
      | None -> ()
    in
    drain ()
  end

let close_conn conn =
  if conn.open_ then begin
    conn.open_ <- false;
    Sandbox.socket_closed conn.env.Env.sandbox;
    Channel.send conn.inbox Eof
  end

let mk_conn d ~ckey ~data_dst =
  (try Sandbox.socket_opened d.d_env.Env.sandbox
   with Sandbox.Violation m -> raise (Stream_error m));
  let conn =
    {
      env = d.d_env;
      ckey;
      data_dst;
      next_send = 0;
      next_recv = 0;
      held = Hashtbl.create 8;
      inbox = Channel.create ();
      open_ = true;
      fin_sent = false;
    }
  in
  Hashtbl.replace d.conns ckey conn;
  conn

let handle d ~src payload =
  match payload with
  | Syn { ckey; reply_port } -> (
      match Hashtbl.find_opt d.accepts src.Addr.port with
      | None ->
          (try
             Sb_socket.send d.d_env ~dst:(Addr.make src.Addr.host reply_port)
               (Syn_refused { ckey })
           with Sb_socket.Network_error _ -> ())
      | Some on_accept -> (
          match mk_conn d ~ckey ~data_dst:(Addr.make src.Addr.host reply_port) with
          | conn ->
              (try Sb_socket.send d.d_env ~dst:conn.data_dst (Syn_ack { ckey })
               with Sb_socket.Network_error _ -> ());
              ignore (Env.thread d.d_env ~name:"stream-accept" (fun () -> on_accept conn))
          | exception Stream_error _ ->
              (* socket cap reached: refuse *)
              (try
                 Sb_socket.send d.d_env ~dst:(Addr.make src.Addr.host reply_port)
                   (Syn_refused { ckey })
               with Sb_socket.Network_error _ -> ())))
  | Syn_ack { ckey } -> (
      match Hashtbl.find_opt d.handshakes ckey with
      | Some iv -> ignore (Ivar.try_fill iv (Ok ()))
      | None -> ())
  | Syn_refused { ckey } -> (
      match Hashtbl.find_opt d.handshakes ckey with
      | Some iv -> ignore (Ivar.try_fill iv (Error "connection refused"))
      | None -> ())
  | Seg { ckey; seq; data } -> (
      match Hashtbl.find_opt d.conns ckey with
      | Some conn -> deliver conn seq data
      | None -> ())
  | Fin { ckey } -> (
      match Hashtbl.find_opt d.conns ckey with
      | Some conn -> close_conn conn
      | None -> ())
  | _ -> ()

(* The dispatcher's datagram socket: one per env, shared by every stream
   connection of that instance. *)
let dispatcher_of env =
  let key = Addr.to_string env.Env.me in
  match Hashtbl.find_opt dispatchers key with
  | Some d when d.d_env == env -> d
  | _ ->
      let d =
        {
          d_env = env;
          conns = Hashtbl.create 8;
          accepts = Hashtbl.create 4;
          handshakes = Hashtbl.create 4;
          next_cid = 0;
        }
      in
      Hashtbl.replace dispatchers key d;
      (try
         ignore
           (Sb_socket.udp env
              ~port:(env.Env.me.Addr.port + stream_port_offset)
              (fun ~src payload -> handle d ~src payload))
       with Sb_socket.Network_error m -> raise (Stream_error m));
      Env.on_stop env (fun () -> Hashtbl.remove dispatchers key);
      d

let listen env ~port ~on_accept =
  let d = dispatcher_of env in
  if Hashtbl.mem d.accepts port then raise (Stream_error "port already listening");
  (* claim the advertised port so SYNs reach the dispatcher *)
  (try
     ignore
       (Sb_socket.udp env ~port (fun ~src payload ->
            match payload with
            (* rewrite the source port so handle() finds this acceptor *)
            | Syn _ as p -> handle d ~src:(Addr.make src.Addr.host port) p
            | p -> handle d ~src p))
   with Sb_socket.Network_error m -> raise (Stream_error m));
  Hashtbl.replace d.accepts port on_accept

let connect env ?(timeout = 10.0) server =
  let d = dispatcher_of env in
  let cid = d.next_cid in
  d.next_cid <- cid + 1;
  let ckey = Printf.sprintf "%s#%d" (Addr.to_string env.Env.me) cid in
  let iv = Ivar.create () in
  Hashtbl.replace d.handshakes ckey iv;
  let conn = mk_conn d ~ckey ~data_dst:server in
  (try
     Sb_socket.send env ~dst:server
       (Syn { ckey; reply_port = env.Env.me.Addr.port + stream_port_offset })
   with Sb_socket.Network_error m ->
     Hashtbl.remove d.handshakes ckey;
     close_conn conn;
     Hashtbl.remove d.conns ckey;
     raise (Stream_error m));
  let result = Ivar.read_timeout iv timeout in
  Hashtbl.remove d.handshakes ckey;
  match result with
  | Some (Ok ()) -> conn
  | Some (Error m) ->
      close_conn conn;
      Hashtbl.remove d.conns ckey;
      raise (Stream_error m)
  | None ->
      close_conn conn;
      Hashtbl.remove d.conns ckey;
      raise (Stream_error "connect timeout")

let send conn data =
  if not conn.open_ then raise (Stream_error "connection closed");
  let seq = conn.next_send in
  conn.next_send <- seq + 1;
  try Sb_socket.send conn.env ~dst:conn.data_dst ~size:(String.length data + 48) (Seg { ckey = conn.ckey; seq; data })
  with Sb_socket.Network_error m -> raise (Stream_error m)

let recv conn =
  match Channel.recv conn.inbox with
  | Data s -> s
  | Eof ->
      Channel.send conn.inbox Eof;
      raise (Stream_error "connection closed")

let recv_timeout conn d =
  match Channel.recv_timeout conn.inbox d with
  | Some (Data s) -> Some s
  | Some Eof ->
      Channel.send conn.inbox Eof;
      None
  | None -> None

let close conn =
  if conn.open_ && not conn.fin_sent then begin
    conn.fin_sent <- true;
    (try Sb_socket.send conn.env ~dst:conn.data_dst (Fin { ckey = conn.ckey })
     with Sb_socket.Network_error _ -> ());
    close_conn conn
  end

let is_open conn = conn.open_
