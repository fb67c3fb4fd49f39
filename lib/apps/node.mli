(** Shared node representation for the overlay applications: an endpoint
    plus its position on the identifier ring, with its message type for
    RPC arguments and results. *)

type t = { id : int; addr : Addr.t }

val make : id:int -> addr:Addr.t -> t
val equal : t -> t -> bool
val compare_by_id : t -> t -> int

val ty : t Splay_runtime.Codec.ty
(** The object [{"id": id, "a": "host:port"}]. Its size is counted from
    the three numbers' decimal lengths; [of_value] reads the form
    [to_value] writes in place, allocating the node and its address
    only, and raises [Codec.Parse_error] on malformed input. *)

val self : ?how:[ `Random | `Hash ] -> bits:int -> Splay_runtime.Env.t -> t
(** Derive this instance's identity on a [2^bits] ring: [`Hash] (default)
    hashes "host:port" as deployed DHTs do; [`Random] draws a uniform
    position as the paper's Chord listing does. *)
