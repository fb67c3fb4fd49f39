(** BitTorrent — swarm content distribution with a tracker, bitfield
    exchange, rarest-first piece selection, and tit-for-tat choking.

    The instance at position 1 runs the tracker and is the initial seed.
    Leechers announce to the tracker, learn a random subset of the swarm,
    exchange bitfields, and pull pieces with parallel request workers;
    uploads are granted to the top reciprocating peers plus one
    optimistically-unchoked peer, re-evaluated periodically, as in the
    reference protocol. Pieces are checked into the sandboxed filesystem
    as they arrive (chunks on disk, as Fig. 1 illustrates). *)

type config = {
  piece_size : int;
  swarm_sample : int; (** peers returned per tracker announce (default 20) *)
  max_peers : int; (** neighbor cap *)
  regular_slots : int; (** reciprocation unchoke slots (default 3) *)
  choke_interval : float; (** default 10 s *)
  optimistic_interval : float; (** default 30 s *)
  tracker_interval : float; (** re-announce period *)
  workers : int; (** parallel in-flight requests per leecher *)
  rpc_timeout : float;
}

val default_config : config

type node

val app : ?config:config -> file_size:int -> register:(node -> unit) -> Env.t -> unit
(** Deploy with [Descriptor.Head 1]: [job.nodes] carries the tracker. *)

val total_pieces : node -> int
val pieces_have : node -> int
val complete : node -> bool
val completion_time : node -> float option
val is_initial_seed : node -> bool
val uploaded_bytes : node -> int
val file_on_disk : node -> bool
(** All pieces present in the sandboxed filesystem. *)

val is_stopped : node -> bool

val piece : [ `Choked | `Missing | `Data of string ] Splay_runtime.Codec.ty
(** A peer's answer to a piece request: [{"choked": true}] while it chokes
    the requester, [{"choked": false, "missing": true}] when it lacks the
    piece, else the piece body as [{"choked": false, "data": body}]. *)
