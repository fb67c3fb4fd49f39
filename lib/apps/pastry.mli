(** Pastry (Rowstron & Druschel) — prefix routing with a leafset and a
    locality-aware routing table.

    Functionally equivalent to the implementation compared against
    FreePastry in §5.3 of the SPLAY paper: [b]-bit digits (default 4, so 16
    columns), a leafset of [leaf_size] nodes (half on each side), routing
    tables built with proximity neighbor selection (each slot prefers the
    candidate with the lowest measured RTT), periodic leafset exchange, and
    repair of broken entries on failed RPCs. *)

type config = {
  bits : int; (** identifier length in bits (default 32) *)
  b : int; (** digit width (default 4: 16 columns, [bits/b] rows) *)
  leaf_size : int; (** total leafset entries (default 16) *)
  stabilize_interval : float;
  rpc_timeout : float;
  suspect_threshold : int;
  join_delay_per_position : float;
  proximity : bool; (** locality-aware table construction (ablation knob) *)
  per_hop_overhead : float;
      (** extra per-message processing cost (seconds), scaled by the host's
          contention multiplier — models heavyweight runtimes (the
          FreePastry baseline sets it; SPLAY's is 0) *)
  id_assignment : [ `Random | `Hash ];
}

val default_config : config

type node

val app : ?config:config -> register:(node -> unit) -> Env.t -> unit

val assemble :
  ?config:config -> register:(node -> unit) -> ring:Node.t array -> index:int -> Env.t -> unit
(** Warm-start this instance at position [index] of an already-converged
    overlay: [ring] is the complete membership sorted by id (ids unique),
    shared read-only across instances. Leafset halves are the nearest
    [leaf_size/2] ring neighbours per side and every routing-table slot
    is filled with a member of its prefix range when one exists, so
    routing behaves as after full convergence; the same RPC surface as
    {!app} is bound. No join traffic, no periodic maintenance — the form
    used by serving benchmarks at node counts where running the join
    protocol to convergence is infeasible. *)

val id : node -> int
val addr : node -> Addr.t
val leafset : node -> Node.t list
(** Left then right neighbors, nearest first in each half. *)

val halves : node -> Node.t list * Node.t list
(** The left (counter-clockwise) and right (clockwise) halves of the
    leafset, nearest first. *)

val table_entries : node -> Node.t list
(** The routing table's entries, row by row, each row by column. *)

val learn : node -> Node.t -> unit
(** Take in a peer, as join replies, leafset exchanges and announcements
    do: it enters a leafset half when nearer than that half's farthest
    entry (or the half has room), and its routing-table slot when the slot
    is empty or, with [proximity], when it is nearer by RTT than the
    slot's entry. Self, an id equal to self's and a recently pruned id
    are ignored. *)

val is_stopped : node -> bool

val lookup : node -> int -> (Node.t * int) option
(** Route to the node responsible for the key (numerically closest id).
    [Some (owner, hops)], [None] when routing broke down. Blocking. *)

(** {1 Hooks for applications layered on Pastry} (Scribe, SplitStream, the
    cooperative web cache) *)

val next_hop : node -> int -> Node.t option
(** The routing decision for a key from this node: [Some n] to forward,
    [None] when this node is the key's owner. Pure (no network). *)

val report_failure : node -> Node.t -> unit
(** Tell Pastry a peer did not answer an application-level call, feeding
    the same suspicion/pruning machinery as Pastry's own traffic. *)

val node_env : node -> Env.t
val self_node : node -> Node.t
val config_of : node -> config
