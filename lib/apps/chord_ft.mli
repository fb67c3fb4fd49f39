(** Fault-tolerant Chord — the extensions sketched at the end of Section 4:
    fault-tolerant RPCs ([rpc.a_call] with a tunable timeout and a
    [suspect] function that prunes unresponsive peers from the routing
    state after a configurable number of misses), and a leafset of several
    successors and predecessors in place of the single pointers, as
    suggested by the Chord paper and similar to Pastry's leafset. This is
    the version deployed on PlanetLab (Fig. 6c) and under churn. *)

type config = {
  m : int;
  stabilize_interval : float; (** shorter than base Chord on PlanetLab (paper: "shorter stabilization intervals") *)
  join_delay_per_position : float;
  rpc_timeout : float; (** paper example tunes 2 min down to 1 min *)
  suspect_threshold : int; (** prune after this many missed replies *)
  leafset_size : int; (** successors and predecessors kept (paper: 4) *)
  proximity_fingers : bool;
      (** latency-aware finger selection (network-coordinates style), the
          optimization MIT's Chord has and the paper's SPLAY Chord lacks *)
  id_assignment : [ `Random | `Hash ];
}

val default_config : config

type node

val app : ?config:config -> register:(node -> unit) -> Env.t -> unit

val id : node -> int
val successors : node -> Node.t list

(** Head of the successor leafset — the node's best current guess, the
    counterpart of base Chord's single pointer. *)
val is_stopped : node -> bool

val lookup : node -> int -> (Node.t * int) option
(** Routes around individual failures using the leafset; [None] only when
    every candidate next hop is unresponsive. Blocking. *)

val suspected_count : node -> int
(** Peers pruned so far (observability for churn experiments). *)

val ring_of : node list -> int list
(** Successor-order walk from the lowest-id node (see {!Chord.ring_of});
    a repaired ring visits every live node exactly once. Pure inspection
    of in-process state, for tests and invariant oracles. *)
