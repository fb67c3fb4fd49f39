(** Cooperative dissemination over parallel n-ary trees (Fig. 13's
    workload): the content is split into blocks, pushed round-robin down
    [ntrees] interior-node-disjoint trees (built SplitStream-style from the
    deployment sequence), and each node forwards every block to its
    children in that tree — in parallel, which is the behavioural
    difference from the native CRCP baseline that forwards sequentially. *)

type config = {
  fanout : int; (** tree arity (Fig. 13 uses binary) *)
  ntrees : int; (** parallel trees (Fig. 13 uses 2) *)
  block_size : int; (** bytes *)
  start_delay : float; (** source waits for the swarm to boot *)
}

val default_config : config

type node

val app : ?config:config -> file_size:int -> register:(node -> unit) -> Env.t -> unit
(** Deploy with [Descriptor.All] bootstrap: every instance derives the
    trees from the full member list. The instance at position 1 is the
    source of all trees. *)

val position : node -> int
val total_blocks : node -> int
val blocks_received : node -> int
val completion_time : node -> float option
(** Simulated time at which the last block arrived (the source completes
    at [start_delay]). *)

val children : node -> tree:int -> Addr.t list
val is_source : node -> bool
