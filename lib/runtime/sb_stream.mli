(** Stream (TCP-like) connections over the restricted socket layer.

    The paper's message-passing API works "over TCP and UDP"; {!Sb_socket}
    is the datagram side, this module is the stream side: connections with
    a handshake, in-order delivery regardless of network jitter, and
    message demarcation (each {!send} arrives as one {!recv}, the [llenc]
    framing contract). Every connection counts against the sandbox's socket
    limit, and all traffic is accounted and subject to the instance's
    blacklist and loss rate. *)

exception Stream_error of string

type t
(** One endpoint of an established connection. *)

val listen : Env.t -> port:int -> on_accept:(t -> unit) -> unit
(** Accept connections on [port]. [on_accept] runs in a fresh process per
    connection. Raises {!Stream_error} if the port is taken or the socket
    cap is reached. *)

val connect : Env.t -> ?timeout:float -> Addr.t -> t
(** Open a connection to a listening endpoint. Blocking three-way-ish
    handshake; raises {!Stream_error} on timeout (default 10 s) or
    refusal. *)

val send : t -> string -> unit
(** Queue one message. Never blocks; delivery is ordered and reliable as
    long as both hosts stay up (the network may delay, not reorder, what
    this layer exposes). Raises {!Stream_error} on a closed connection. *)

val recv : t -> string
(** Block until the next in-order message. Raises {!Stream_error} if the
    connection closes while waiting (or was already closed and drained). *)

val recv_timeout : t -> float -> string option

val close : t -> unit
(** Send FIN and release the socket. Idempotent. Queued incoming messages
    can still be drained with {!recv_timeout}. *)

val is_open : t -> bool
