(** Chord (Stoica et al.) — the base implementation of Section 4 of the
    paper, a line-by-line transcription of Listings 1–3: plain successor
    pointer, finger table, periodic [stabilize] / [fix_fingers] /
    [check_predecessor], no fault tolerance. Deploy it on a failure-free
    testbed (the ModelNet runs of Fig. 6a/6b); use {!Chord_ft} under churn. *)

type config = {
  m : int; (** identifier bits: [2^m] positions (paper: 24) *)
  stabilize_interval : float; (** paper: 5 s *)
  join_delay_per_position : float;
      (** staggered-join pause: [position * this] seconds before joining,
          as in the deployment code of §5.2 (1 s) *)
  id_assignment : [ `Random | `Hash ];
}

val default_config : config

type node
(** In-process handle on one Chord instance, for experiment observation. *)

val app : ?config:config -> register:(node -> unit) -> Env.t -> unit
(** The application main, suitable for [Controller.deploy ~main]. Calls
    [register] with the node handle before joining the ring. *)

val assemble :
  ?config:config -> register:(node -> unit) -> ring:Node.t array -> index:int -> Env.t -> unit
(** Warm-start this instance at position [index] of an already-converged
    ring: [ring] is the complete membership sorted by id (ids unique),
    shared read-only across all instances. Predecessor, successor and all
    [m] fingers are computed directly from the membership — the exact
    fixed point that [stabilize]/[fix_fingers] converge to — and the same
    RPC surface as {!app} is bound, so lookups route identically. No
    periodic processes are started and no join traffic is generated,
    which is what makes a 100k-node ring constructible: the join protocol
    would need O(n) serialized joins and O(n*m) stabilizer firings first.
    Use {!app} to study convergence; use this to study routing at scales
    where convergence is not the question. *)

val id : node -> int
val successor : node -> Node.t option
val predecessor : node -> Node.t option
val fingers : node -> Node.t option array
val is_stopped : node -> bool
val node_env : node -> Env.t

val lookup : node -> int -> (Node.t * int) option
(** [lookup n key] routes from [n]: [Some (responsible, hops)], or [None]
    if an RPC on the path failed. Blocking. *)

val ring_of : node list -> int list
(** Successor-order walk of the ring starting from the lowest-id node, as
    ids; a correctly converged ring visits every live node exactly once.
    (Pure inspection of in-process state, for tests.) *)
