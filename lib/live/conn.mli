(** One framed, non-blocking TCP connection driven by a {!Loop}.

    Inbound bytes stream through a {!Splay_ctl.Wire.decoder}; every
    complete control message is delivered to [on_msg]. Outbound messages
    queue and drain as the socket allows. A peer close, I/O error or
    protocol (framing) error closes the connection exactly once and
    reports the reason to [on_close]. *)

type t

val attach :
  ?dec:Splay_ctl.Wire.decoder ->
  Loop.t ->
  Unix.file_descr ->
  on_msg:(t -> Splay_ctl.Wire.msg -> unit) ->
  on_close:(t -> string -> unit) ->
  t
(** Take ownership of [fd] (switched to non-blocking, registered in the
    loop). [?dec] hands over a decoder that already holds bytes read
    during a blocking handshake; any complete messages in it are
    delivered immediately. *)

val send : t -> Splay_ctl.Wire.msg -> unit
(** Queue one message and write as much as the socket accepts. No-op on a
    closed connection. *)

val close : t -> string -> unit
(** Idempotent teardown: unwatch, close the fd, fire [on_close]. *)

val closed : t -> bool

val flush_blocking : ?timeout:float -> t -> unit
(** Synchronously drain the out queue (shutdown path: final trace chunks
    and [Bye] must reach the controller before [exit]). *)

val deliver :
  Loop.t -> src:Addr.t -> dst:Addr.t -> size:int -> Splay_runtime.Codec.value -> unit
(** Hand a tunnelled RPC message (an [App] frame's payload) to the loop's
    net for delivery to [dst]; a malformed payload is dropped. *)
