(** Shared node representation for the overlay applications: an endpoint
    plus its position on the identifier ring, with the wire encoding used
    in RPC arguments. *)

type t = { id : int; addr : Addr.t }

val make : id:int -> addr:Addr.t -> t
val equal : t -> t -> bool
val compare_by_id : t -> t -> int

val to_value : t -> Splay_runtime.Codec.value
val of_value : Splay_runtime.Codec.value -> t
(** Raises [Codec.Parse_error] on malformed input. *)

val opt_to_value : t option -> Splay_runtime.Codec.value
val opt_of_value : Splay_runtime.Codec.value -> t option

val self : ?how:[ `Random | `Hash ] -> bits:int -> Splay_runtime.Env.t -> t
(** Derive this instance's identity on a [2^bits] ring: [`Hash] (default)
    hashes "host:port" as deployed DHTs do; [`Random] draws a uniform
    position as the paper's Chord listing does. *)
