(** Write-once synchronization cell ("future") for simulated processes.

    An RPC reply slot, a join signal, a one-shot notification: anything where
    one process blocks until another produces a value. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Resolve the cell, waking all readers. Raises [Invalid_argument] if
    already filled. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising when already full. *)

val is_filled : 'a t -> bool

val read : 'a t -> 'a
(** Block the calling process until the cell is filled. Returns immediately
    if already filled. *)

val read_timeout : 'a t -> float -> 'a option
(** [read_timeout t d] is [Some v] if filled within [d] simulated seconds,
    [None] otherwise. *)
