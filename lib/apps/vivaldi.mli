(** Vivaldi network coordinates (Dabek et al., SIGCOMM'04).

    The decentralized latency-prediction scheme behind "network coordinates
    for constructing latency-aware finger tables" — the optimization the
    paper credits for MIT Chord's edge in Fig. 6(c). Each node maintains a
    low-dimensional coordinate; on every timed probe it nudges its
    coordinate along the spring force between predicted and measured RTT,
    weighting by relative confidence. After convergence,
    [distance my_coord their_coord] predicts the RTT without probing.

    Embeddable: {!create} attaches coordinates to any existing instance
    (sharing its RPC endpoint), which is how a DHT would consume it;
    {!app} is the standalone application for deployment. *)

type config = {
  dimensions : int; (** coordinate space (default 3) *)
  ce : float; (** coordinate adaptation gain (default 0.25) *)
  cc : float; (** confidence adaptation gain (default 0.25) *)
  period : float; (** seconds between probe rounds (default 5) *)
  probes_per_round : int;
  rpc_timeout : float;
}

val default_config : config

type node

val app : ?config:config -> register:(node -> unit) -> Env.t -> unit
(** Standalone application: peers come from [job.nodes] (deploy with
    [Descriptor.All] or a [Random_subset]). *)

val addr : node -> Addr.t

val coordinate : node -> float array
(** Current coordinate (a copy). *)

val confidence_error : node -> float
(** Local error estimate in [0, 1+]; lower is more confident. Starts at 1. *)

val samples : node -> int
(** Probes incorporated so far. *)

val distance : float array -> float array -> float
(** Euclidean distance between two coordinates = predicted RTT seconds. *)

