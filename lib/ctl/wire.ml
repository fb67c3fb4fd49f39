(* Control-plane wire protocol.

   Two layers live here. The value layer is the message type of an
   address list, carried inside the control procedures' RPC arguments.
   The frame layer is the live control plane's transport: a versioned, length-prefixed binary framing over
   [Splay_runtime.Codec] payloads, plus the typed message set exchanged
   between the live controller and real [splayd] processes: the
   bootstrap handshake, streamed log / trace records, the shutdown
   handshake, and tunnelled RPC traffic, which carries the whole deploy
   conversation and the heartbeats as the simulator's typed [splayd.*]
   and [ctl.heartbeat] procedures.

   Framing format (version 1):

   {v
     +---+---+---+-----+------------------+--------------------+
     |'S'|'P'|'W'| 0x01| length (4B, BE)  | payload (JSON text) |
     +---+---+---+-----+------------------+--------------------+
   v}

   The payload is [Codec.encode] of a value. The 3-byte magic catches a
   desynchronized or non-protocol peer immediately; the version byte lets
   a future format coexist on the same port; the length prefix bounds the
   read. The decoder is a streaming state machine over arbitrary read
   chunk boundaries: a frame torn across reads is simply incomplete
   ([next] answers [None]) and is completed by a later [feed] — a torn
   read can never desynchronize the stream. Corrupt input (bad magic,
   unsupported version, absurd length, malformed payload) raises
   {!Codec.Parse_error}: the connection is unrecoverable and must be
   closed, never resynchronized by guesswork. *)

module Codec = Splay_runtime.Codec

let addr_of_value v =
  match String.split_on_char ':' (Codec.to_string v) with
  | [ h; p ] -> (
      match (int_of_string_opt h, int_of_string_opt p) with
      | Some h, Some p -> Addr.make h p
      | _ -> raise (Codec.Parse_error "bad address"))
  | _ -> raise (Codec.Parse_error "bad address")

(* An address is the string "host:port". *)
let addr =
  {
    Codec.size = (fun (a : Addr.t) -> 3 + Addr.decimal_length a.host + Addr.decimal_length a.port);
    to_value = (fun a -> Codec.String (Addr.to_string a));
    of_value = addr_of_value;
  }

let addrs = Codec.list addr

(* {1 Framing} *)

let version = 1
let header_len = 8
let max_frame = 16 * 1024 * 1024

let frame_value v =
  let payload = Codec.encode v in
  let n = String.length payload in
  if n > max_frame then invalid_arg "Wire.frame_value: frame too large";
  let b = Bytes.create (header_len + n) in
  Bytes.set b 0 'S';
  Bytes.set b 1 'P';
  Bytes.set b 2 'W';
  Bytes.set b 3 (Char.chr version);
  Bytes.set_int32_be b 4 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

type decoder = { mutable buf : Bytes.t; mutable pos : int; mutable fill : int }

let decoder () = { buf = Bytes.create 4096; pos = 0; fill = 0 }

(* Slide the live region back to offset 0 — O(live bytes), amortized by
   only running when an append would not fit. *)
let compact d =
  if d.pos > 0 then begin
    let live = d.fill - d.pos in
    if live > 0 then Bytes.blit d.buf d.pos d.buf 0 live;
    d.pos <- 0;
    d.fill <- live
  end

let feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then invalid_arg "Wire.feed";
  if len > 0 then begin
    if d.fill + len > Bytes.length d.buf then begin
      compact d;
      let need = d.fill + len in
      if need > Bytes.length d.buf then begin
        let cap = ref (Bytes.length d.buf * 2) in
        while !cap < need do
          cap := !cap * 2
        done;
        let grown = Bytes.create !cap in
        Bytes.blit d.buf 0 grown 0 d.fill;
        d.buf <- grown
      end
    end;
    Bytes.blit src off d.buf d.fill len;
    d.fill <- d.fill + len
  end

let next_value d =
  let avail = d.fill - d.pos in
  if avail < header_len then None
  else begin
    let b = d.buf and p = d.pos in
    if Bytes.get b p <> 'S' || Bytes.get b (p + 1) <> 'P' || Bytes.get b (p + 2) <> 'W' then
      raise (Codec.Parse_error "bad frame magic");
    let ver = Char.code (Bytes.get b (p + 3)) in
    if ver <> version then
      raise (Codec.Parse_error (Printf.sprintf "unsupported wire version %d" ver));
    let len = Int32.to_int (Bytes.get_int32_be b (p + 4)) in
    if len < 0 || len > max_frame then raise (Codec.Parse_error "frame length out of range");
    if avail < header_len + len then None
    else begin
      let payload = Bytes.sub_string b (p + header_len) len in
      d.pos <- p + header_len + len;
      if d.pos = d.fill then begin
        d.pos <- 0;
        d.fill <- 0
      end;
      Some (Codec.decode payload)
    end
  end

(* {1 Typed control messages} *)

type msg =
  | Hello of { host : int; pid : int; data_port : int }
  | Peers of { epoch : float; ctl : int; peers : (int * int) list }
  | Shutdown
  | Logline of { time : float; node : string; level : Log.level; text : string }
  | Chunk of { host : int; kind : string; data : string; final : bool }
  | Bye of { host : int }
  | App of { src : Addr.t; dst : Addr.t; size : int; payload : Codec.value }

let level_of_value v =
  match Log.level_of_string (Codec.to_string v) with
  | Some l -> l
  | None -> raise (Codec.Parse_error "bad log level")

let tagged tag fields = Codec.Assoc (("t", Codec.String tag) :: fields)

let msg_to_value = function
  | Hello { host; pid; data_port } ->
      tagged "hello"
        [ ("host", Codec.Int host); ("pid", Codec.Int pid); ("data_port", Codec.Int data_port) ]
  | Peers { epoch; ctl; peers } ->
      tagged "peers"
        [
          ("epoch", Codec.Float epoch);
          ("ctl", Codec.Int ctl);
          ( "peers",
            Codec.List (List.map (fun (h, p) -> Codec.List [ Codec.Int h; Codec.Int p ]) peers) );
        ]
  | Shutdown -> tagged "shutdown" []
  | Logline { time; node; level; text } ->
      tagged "log"
        [
          ("time", Codec.Float time);
          ("node", Codec.String node);
          ("level", Codec.String (Log.level_to_string level));
          ("text", Codec.String text);
        ]
  | Chunk { host; kind; data; final } ->
      tagged "chunk"
        [
          ("host", Codec.Int host);
          ("kind", Codec.String kind);
          ("data", Codec.String data);
          ("final", Codec.Bool final);
        ]
  | Bye { host } -> tagged "bye" [ ("host", Codec.Int host) ]
  | App { src; dst; size; payload } ->
      tagged "app"
        [
          ("src", addr.to_value src);
          ("dst", addr.to_value dst);
          ("size", Codec.Int size);
          ("payload", payload);
        ]

let msg_of_value v =
  let int k = Codec.to_int (Codec.member k v) in
  let str k = Codec.to_string (Codec.member k v) in
  match str "t" with
  | "hello" -> Hello { host = int "host"; pid = int "pid"; data_port = int "data_port" }
  | "peers" ->
      Peers
        {
          epoch = Codec.to_float (Codec.member "epoch" v);
          ctl = int "ctl";
          peers =
            List.map
              (fun p ->
                match Codec.to_list p with
                | [ h; d ] -> (Codec.to_int h, Codec.to_int d)
                | _ -> raise (Codec.Parse_error "bad peer entry"))
              (Codec.to_list (Codec.member "peers" v));
        }
  | "shutdown" -> Shutdown
  | "log" ->
      Logline
        {
          time = Codec.to_float (Codec.member "time" v);
          node = str "node";
          level = level_of_value (Codec.member "level" v);
          text = str "text";
        }
  | "chunk" ->
      Chunk
        {
          host = int "host";
          kind = str "kind";
          data = str "data";
          final = Codec.to_bool (Codec.member "final" v);
        }
  | "bye" -> Bye { host = int "host" }
  | "app" ->
      App
        {
          src = addr_of_value (Codec.member "src" v);
          dst = addr_of_value (Codec.member "dst" v);
          size = int "size";
          payload = Codec.member "payload" v;
        }
  | tag -> raise (Codec.Parse_error (Printf.sprintf "unknown control message %S" tag))

let frame_msg m = frame_value (msg_to_value m)

let next_msg d = Option.map msg_of_value (next_value d)
