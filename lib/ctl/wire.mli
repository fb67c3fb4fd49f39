(** Control-plane wire protocol.

    The value layer ({!addrs}) is the message type of an address list,
    carried in the RPC arguments of the simulated control plane. The frame layer is the
    {e live} control plane's transport: a versioned, length-prefixed binary
    framing over {!Splay_runtime.Codec} payloads, and the typed message set
    the live controller and real [splayd] processes exchange — the deploy
    conversation's verbs, heartbeats with sandbox resource reports,
    streamed log / trace records, and tunnelled application traffic.

    Frame format (version 1): 3-byte magic ["SPW"], 1 version byte, 4-byte
    big-endian payload length, then [Codec.encode] of the payload value.
    Payloads over 16 MB are refused on encode ([Invalid_argument]) and on
    decode ({!Splay_runtime.Codec.Parse_error}).
    The streaming {!decoder} tolerates arbitrary read-chunk boundaries: a
    frame torn across reads is incomplete, never desynchronizing. Corrupt
    input raises {!Codec.Parse_error} — close the connection. *)

val addrs : Addr.t list Splay_runtime.Codec.ty
(** A list of ["host:port"] strings. *)

(** {1 Framing} *)

type decoder
(** Streaming frame parser. Feed it read chunks as they arrive; pull
    complete frames with {!next_msg}. *)

val decoder : unit -> decoder

val feed : decoder -> Bytes.t -> int -> int -> unit
(** [feed d buf off len] appends [len] bytes of received data. *)

(** {1 Typed control messages}

    The live control protocol. [Hello] / [Peers] is the bootstrap
    handshake (the daemon announces its data port; the controller answers
    with the shared wall-clock epoch and the peer table). [Register] /
    [Start] / [Free] are the {!Deploy} conversation's verbs; each carries
    a request id [rid] that its [Ack] echoes. [Register] creates an
    instance on a port the daemon picks (the ack's [detail]); [Start]
    carries the LIST step (position, bootstrap nodes) and launches it;
    [Free] discards it. [Shutdown] ends the daemon. [Heartbeat] carries the daemon's sandbox resource report;
    [Logline] streams application log records; [Chunk] streams the
    daemon's trace / metrics JSONL dump at shutdown; [App] tunnels one
    application message between daemons over the data connections. *)

type msg =
  | Hello of { host : int; pid : int; data_port : int }
  | Peers of { epoch : float; peers : (int * int) list }
  | Register of {
      rid : int;
      job : int;
      app : string;  (** registry name of the application to run *)
      name : string;
      limits : Sandbox.limits;
      log_level : Log.level;
      params : (string * string) list;  (** application parameters *)
    }
  | Start of {
      rid : int;
      job : int;
      port : int;
      position : int;
      nodes : Addr.t list;  (** bootstrap membership handed to the instance *)
    }
  | Free of { rid : int; port : int }
  | Shutdown
  | Ack of { rid : int; ok : bool; detail : string }
  | Heartbeat of {
      host : int;
      rss : int;  (** process resident set, bytes (self-polled) *)
      mem : int;  (** sandbox-accounted application state, bytes *)
      sockets : int;
      fs : int;
      fibers : int;
      inflight : int;
    }
  | Logline of { time : float; node : string; level : Log.level; text : string }
  | Chunk of { host : int; kind : string; data : string; final : bool }
  | Bye of { host : int }
  | App of { src : Addr.t; dst : Addr.t; size : int; payload : Splay_runtime.Codec.value }

val frame_msg : msg -> string
(** One complete frame: header + encoded payload, ready to write. *)

val next_msg : decoder -> msg option
(** The next complete frame's message, or [None] if the buffered data ends
    mid-frame. Raises {!Splay_runtime.Codec.Parse_error} on corrupt input
    (bad magic, unsupported version, absurd length, malformed payload,
    unknown tag or shape mismatch). *)
