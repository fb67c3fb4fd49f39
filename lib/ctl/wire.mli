(** Control-plane wire protocol.

    The value layer ({!addrs}) is the message type of an address list,
    carried in the control procedures' RPC arguments. The frame layer is
    the {e live} control plane's transport: a versioned, length-prefixed binary
    framing over {!Splay_runtime.Codec} payloads, and the typed message set
    the live controller and real [splayd] processes exchange: the
    bootstrap and shutdown handshakes, streamed log / trace records, and
    tunnelled RPC traffic, which carries the deploy conversation and the
    heartbeats.

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
    handshake: the daemon announces its data port; the controller answers
    with the shared wall-clock epoch, its own host id and the peer
    table. Everything else the two say to each other is RPC: [App]
    tunnels one RPC request or reply ({!Splay_runtime.Rpc.payload_to_value})
    between the controller and a daemon over the control connection, and
    between daemons over their data connections. The deploy conversation
    and the heartbeats are the simulator's own typed procedures
    ({!Daemon}). [Logline] streams application log records; [Shutdown]
    ends the daemon, which streams its trace / metrics JSONL dump as
    [Chunk]s and says [Bye]. *)

type msg =
  | Hello of { host : int; pid : int; data_port : int }
  | Peers of {
      epoch : float;
      ctl : int;  (** the controller's host id, which no daemon has *)
      peers : (int * int) list;  (** daemon host id, data port *)
    }
  | Shutdown
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
