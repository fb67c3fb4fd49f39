(** A replicated key-value store on Pastry — the "indexing service based on
    a DHT" of the paper's long-running-application use case (§1, §3.2).

    Replication is by salted keys: replica [i] of a key lives at the Pastry
    owner of [hash(key # i)], so the [replicas] copies land on unrelated
    nodes and a reader can fall back from one replica to the next without
    knowing anyone's leafset. Storing nodes republish their entries
    periodically, so data migrates to new owners as the ring churns and
    expires when every holder is gone longer than the republish TTL.

    {2 Owner memo}

    Each node remembers, per key and replica, the owner its last route
    named (created at the first route, so a node that only serves holds
    none). Reads go through it: a hit costs one fetch RPC and no
    multi-hop route. A memoized owner that answers with a miss or fails
    the RPC (which is still reported to Pastry) is re-resolved with one
    route; a shed reply leaves it in place, since that owner is healthy.
    Writes ({!put_r}, republish) route every replica so data
    lands at the current owner under churn, and refresh the memo with
    what the routes return.

    {2 Serving fast path}

    With [serve_cost > 0] each owner-side store/fetch occupies the node
    for that much service time (scaled by the host's contention
    multiplier) and requests queue behind a single worker — the model the
    open-loop serving benchmarks load to saturation. Three optimizations
    sit behind config toggles so they can be ablated:

    - [batching]: concurrent gets for the same key coalesce into one
      service slot, with the reply fanned out to every waiter;
    - [p2c]: {!get} samples two replicas and reads from the
      estimated-closer / less-loaded owner first (an EWMA of observed
      fetch round-trips, with shed replies penalized by a full SLO budget). It
      routes at most the first sample; the second is a candidate only
      when the owner memo already names its owner, so a p2c get never
      routes more than a baseline get;
    - [admission]: owners shed at enqueue time — a token bucket caps the
      sustained accept rate and requests whose queueing delay would
      already exceed [slo_budget] get a distinguished fast-reject reply,
      which clients treat as a miss-at-replica (not a failure), so
      overload degrades instead of collapsing.

    All toggles default off and [serve_cost] defaults to 0: owners then
    answer directly, with no queue. *)

type config = {
  replicas : int; (** copies kept (default 3) *)
  republish_interval : float; (** default 30 s; [<= 0] disables republish *)
  entry_ttl : float; (** entries not republished for this long expire (default 120 s) *)
  rpc_timeout : float;
  serve_cost : float;
      (** owner-side service time per request, seconds (default 0: direct
          calls, no queue) *)
  batching : bool; (** coalesce same-key gets into one service slot *)
  p2c : bool; (** power-of-two-choices replica selection in {!get} *)
  admission : bool; (** token-bucket + SLO-budget shedding at the owner *)
  token_rate : float; (** sustained accepts per second (default 2000) *)
  token_burst : float; (** bucket depth (default 64) *)
  slo_budget : float; (** max acceptable queueing delay, seconds (default 0.25) *)
}

val default_config : config

type t

val create : ?config:config -> Pastry.node -> t
(** Layer the store over a Pastry instance (shared RPC endpoint). *)

val put : t -> key:string -> value:string -> int
(** Store the value; returns how many replicas acknowledged (0 means the
    put failed entirely). Blocking. *)

val put_r : t -> key:string -> value:string -> int * int
(** {!put} with the overload verdict: [(acks, sheds)] — how many replicas
    acknowledged and how many fast-rejected the write under admission
    control (healthy-but-overloaded, distinct from failed). *)

val get : t -> key:string -> string option
(** Read, falling back across replicas, through the owner memo.
    Blocking. *)

val get_r : t -> key:string -> [ `Value of string | `Miss | `Shed ]
(** {!get} with the overload verdict: [`Shed] when no replica returned a
    value but at least one fast-rejected the read — the caller saw
    overload, not absence. *)

val replica_id : t -> key:string -> int -> int
(** The overlay id replica [i] of [key] lives at — exposed so warm-start
    harnesses can place data without routing through the overlay. *)

val preload : t -> key:string -> value:string -> unit
(** Insert directly into this node's local store (no routing, no
    replication): benchmark warm start for assembled overlays. *)

val stored_entries : t -> int
(** Entries this node currently holds (observability). *)

val served_count : t -> int
(** Requests this owner completed through the serving queue. *)

val shed_count : t -> int
(** Requests fast-rejected by admission control. *)

val batched_count : t -> int
(** Extra waiters absorbed into coalesced fetches (0 without [batching]). *)
