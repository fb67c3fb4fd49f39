(** Unbounded FIFO mailbox between simulated processes.

    The building block for message queues inside a host: network delivery
    pushes into a channel, the application's receive loop blocks on it. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Never blocks (unbounded). Wakes one waiting receiver if any. *)

val recv : 'a t -> 'a
(** Block the calling process until a message is available. Messages are
    delivered in FIFO order; competing receivers are served in arrival
    order. *)

val recv_timeout : 'a t -> float -> 'a option
(** [Some msg] if one arrives within the duration, else [None]. *)

val try_recv : 'a t -> 'a option
(** Non-blocking receive. *)

val length : 'a t -> int
(** Number of queued (undelivered) messages. *)
