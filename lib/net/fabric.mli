(** One simulated deployment spread across engine partitions.

    The network-aware face of {!Splay_sim.Par}: hosts are placed
    round-robin over [parts] partitions ([host_id mod parts]), each
    partition owns a synthetic testbed copy and a {!Net.t} on its own
    engine, and a [Net.send] whose destination is homed elsewhere
    travels through a Par mailbox — sender-side link model on the source
    partition, receiver-side on the destination's (see
    {!Net.set_remote}). Lookahead is [Latency.min_rtt / 2] of the
    testbed's latency model.

    Build protocol nodes the usual way — [Env.create (net_of_host fab
    h) ~me:addr ...] — then {!run}. Everything {!Splay_sim.Par}
    promises holds here: the run is a pure function of
    [(seed, parts)], byte-identical for any [?domains]. *)

type t

val create :
  ?seed:int ->
  ?latency:Latency.t ->
  ?bw:float ->
  ?proc_cost:float ->
  hosts:int ->
  parts:int ->
  unit ->
  t
(** Build [parts] partitions over [hosts] hosts. [latency] defaults to
    [Latency.synthetic] seeded from [seed]; [bw]/[proc_cost]
    are passed to each {!Testbed.synthetic}. @raise Invalid_argument if
    the latency model answers [min_rtt = None] or zero (Lognormal
    distributions, or {!Latency.of_fn} without its [~min_rtt] argument,
    cannot bound lookahead) — run those sequentially instead. *)

val part_of : t -> Addr.host_id -> int
val parts : t -> int
val lookahead : t -> float

val engine : t -> int -> Splay_sim.Engine.t
(** Partition [i]'s engine. *)

val net_of_host : t -> Addr.host_id -> Net.t
(** The network that host [h]'s endpoints must be bound on (its home
    partition's) — hand this to [Env.create] for node [h]. *)

val run : ?domains:int -> t -> Splay_sim.Par.run_info
(** Drive the whole deployment to completion on up to [domains] worker
    domains (default [parts], clamped to the machine). Single-shot.
    @raise Invalid_argument if any partition engine has a perturbation
    policy installed — nemesis schedules are sequential-only. *)

val messages_sent : t -> int
val bytes_sent : t -> int
val messages_dropped : t -> int
(** Aggregates over all partitions' networks. *)
