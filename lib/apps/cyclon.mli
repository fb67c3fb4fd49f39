(** Cyclon (Voulgaris et al.) — inexpensive gossip-based membership
    management. Each node keeps a small cache of (neighbor, age) entries
    and periodically shuffles a random subset with its oldest neighbor,
    which keeps the overlay connected, randomish, and with balanced
    in-degrees under churn. *)

type config = {
  cache_size : int; (** c, default 20 *)
  shuffle_length : int; (** l, default 8 *)
  period : float; (** shuffle interval, default 10 s *)
  rpc_timeout : float;
  join_delay_per_position : float;
}

val default_config : config

type node

val app : ?config:config -> register:(node -> unit) -> Env.t -> unit

val self : node -> Node.t
val neighbors : node -> Node.t list
val shuffles_done : node -> int
val is_stopped : node -> bool
