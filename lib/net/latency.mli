(** Pluggable host-pair latency models — the signature behind every
    propagation-delay query.

    Historically the only latency source was {!Topology}'s precomputed
    transit×transit Dijkstra matrix. That backend is exact and cheap at
    ModelNet scale (500 routers), but materializing per-pair state cannot
    survive million-host deployments. This module turns "what is the base
    one-way delay between hosts [a] and [b]?" into a first-class value with
    two interchangeable implementations:

    - {!matrix}: the existing precomputed-matrix topology, byte-identical
      to calling [Topology.delay_to] directly — fixed-seed golden traces do
      not move when a testbed routes through it;
    - {!synthetic}: an O(1), zero-storage model that derives each pair's
      delay from a splitmix64 hash of [(seed, min a b, max a b)] pushed
      through a configurable RTT distribution. No state is materialized,
      so a million hosts cost exactly as much as ten.

    Both are pure functions of their inputs: symmetric, deterministic
    across runs, jobs and domains. Jitter, if any, stays the testbed's
    business — a [Latency.t] answers only the stable base delay. *)

type t

val name : t -> string
(** Short human-readable backend tag ([e.g. "matrix", "synthetic"]),
    recorded in bench metadata. *)

val seed : t -> int
(** The seed the model draws from (0 for backends without one). *)

val delay_to : t -> Splay_sim.Eheap.fcell -> Addr.host_id -> Addr.host_id -> unit
(** [delay_to t cell a b] stores the one-way propagation delay in seconds
    between two hosts in [cell]. Symmetric: [a, b] and [b, a] answer the
    same. Deterministic: the same [t] always answers the same value for
    the same pair. A cell, not a result, because a float returned across
    a module boundary would be boxed per message on the send path. The
    cell is the caller's, so models shared by several partitions stay
    safe to query in parallel. *)

(** {1 Synthetic per-pair model} *)

(** RTT distributions for the synthetic model. All parameters are
    round-trip seconds; {!delay_to} answers one-way values (RTT/2). *)
type rtt_dist =
  | Constant of float  (** every pair at the same RTT *)
  | Uniform of { lo : float; hi : float }  (** RTT uniform in [\[lo, hi)] *)
  | Lognormal of { median : float; sigma : float }
      (** heavy-ish tail: [median * exp (sigma * N)] with [N] standard
          normal (inverse-CDF transform of the pair's hash draw) *)
  | Classes of (float * float) array
      (** discrete mixture of [(weight, rtt)] classes — e.g. the paper's
          transit-stub flavor: 10 ms intra-stub, 30 ms stub-stub, 100 ms
          crossing transits *)

val synthetic : ?dist:rtt_dist -> ?intra_host:float -> seed:int -> unit -> t
(** O(1) hash-seeded model. [dist] defaults to the ModelNet family as a
    mixture (mostly 30/100 ms pairs, a small 10 ms same-stub fraction);
    [intra_host] (default [5e-5], the LAN loopback figure used elsewhere)
    is the delay a host sees to itself. Each unordered pair hashes to a
    uniform draw in [\[0,1)] which the distribution's quantile function
    maps to an RTT; no per-pair state exists anywhere. *)

(** {1 Matrix-backed model} *)

val matrix : Topology.t -> stub_of:(Addr.host_id -> Topology.router) -> t
(** The precomputed transit-stub matrix as a [Latency.t]: [delay] is
    [Topology] shortest-path delay between the hosts' attachment routers.
    [Topology.delay_to] is its router-level primitive. *)

(** {1 Escape hatch} *)

val of_fn :
  name:string -> ?seed:int -> ?min_rtt:float -> (Addr.host_id -> Addr.host_id -> float) -> t
(** Wrap an arbitrary delay function (tests, replayed measurement data).
    The function must be symmetric and deterministic. [min_rtt], if
    given, promises that [2 * f a b >= min_rtt] for all distinct [a],
    [b] (must be positive); without it the wrapped model answers
    [min_rtt t = None] and cannot drive the parallel engine — {!Fabric}
    will refuse it with an error naming this argument. *)

(** {1 Lookahead for the parallel engine} *)

val min_rtt : t -> float option
(** Hard lower bound on the round-trip time between two {e distinct}
    hosts, or [None] when the model cannot promise one. This is what the
    conservative parallel engine turns into lookahead: within a time
    window shorter than the minimum one-way delay, partitions cannot
    affect each other. Per backend: {!synthetic} answers the
    distribution's infimum ([Constant] → the RTT, [Uniform] → [lo],
    [Classes] → cheapest positively-weighted class) and [None] for
    [Lognormal], whose quantile has no positive lower bound; {!matrix}
    answers twice the cheapest one-way router-pair delay (at most the
    intra-stub delay, since two hosts can share a stub router); {!of_fn}
    answers its [?min_rtt] argument verbatim. [intra_host] delays are
    excluded — a host talking to itself never crosses partitions. *)

val lookahead : t -> float option
(** [min_rtt t / 2]: the minimum one-way cross-host delay, i.e. the safe
    window width for conservative parallel simulation. *)
