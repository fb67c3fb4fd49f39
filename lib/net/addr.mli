(** Network endpoints.

    A host is a physical machine of a testbed; an address is one bound port
    on a host — one SPLAY application instance endpoint. *)

type host_id = int

type t = { host : host_id; port : int }

val make : host_id -> int -> t
val equal : t -> t -> bool
val hash : t -> int
val to_string : t -> string
(** ["host:port"], exactly as [Printf.sprintf "%d:%d"] renders it. *)

val decimal_length : int -> int
(** The length of [string_of_int n], counted without dividing. *)
