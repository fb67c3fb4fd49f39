(** Message transport between application endpoints.

    Models what the testbed's IP network plus the kernel gives a SPLAY
    daemon: unicast datagrams between bound ports, with propagation delay
    from the {!Testbed} latency model, store-and-forward transmission
    through per-host uplink/downlink bandwidth queues (so links saturate,
    which drives the tree-dissemination experiment), optional loss, and
    delivery only to hosts that are up.

    Payloads are an extensible variant: each layer (RPC, streams,
    applications) declares its own constructors. *)

type payload = ..

type t

type handler = src:Addr.t -> payload -> unit

val create : Splay_sim.Engine.t -> Testbed.t -> t
(** A network on the engine. Messages in flight wait in the engine's
    message queue ({!Splay_sim.Engine.post}) and the net is its one
    consumer, so an engine carries one net: raises [Invalid_argument] if
    the engine already has a consumer. *)

val engine : t -> Splay_sim.Engine.t
val testbed : t -> Testbed.t

val bind : t -> Addr.t -> handler -> unit
(** Claim a port. Raises [Invalid_argument] if already bound. *)

val unbind : t -> Addr.t -> unit
val is_bound : t -> Addr.t -> bool

val set_loss : t -> float -> unit
(** Global probability that any message is dropped (default 0). The paper's
    library feature "drop a given proportion of the packets" for lossy-link
    studies. *)

val set_extra_delay : t -> float -> unit
(** Add a flat extra delay (seconds, default 0, clamped at 0) to every
    subsequent delivery, after the bandwidth queues — the delay-burst
    nemesis of [splay check]. Messages already in flight are unaffected. *)

val send : t -> ?size:int -> ?loss:float -> src:Addr.t -> dst:Addr.t -> payload -> unit
(** Fire-and-forget datagram. [size] in bytes (default 256, a small control
    message) governs transmission time through the bandwidth queues; [loss]
    overrides the global loss probability for this message. Messages from or
    to a down host, or to an unbound port, are silently dropped — exactly
    the failure model protocols must tolerate. *)

val set_partition : t -> (Addr.host_id -> int) -> unit
(** Split the network: messages between hosts mapped to different groups
    are dropped (the "disconnection of an inter-continental link or a WAN
    link between two corporate LANs" scenario behind Fig. 10). *)

val clear_partition : t -> unit
(** Heal the split. *)

val partitioned : t -> Addr.host_id -> Addr.host_id -> bool
(** Whether traffic between two hosts is currently blocked. *)

val host_up : t -> Addr.host_id -> bool
(** A host is brought down through {!Testbed.set_host_up}: that drops all
    traffic to and from it, and queued messages already "in flight" to
    it are lost on delivery. *)

val base_rtt : t -> Addr.host_id -> Addr.host_id -> float
(** Stable round-trip estimate between two hosts (what an application-level
    ping would measure on an idle network); used by proximity-aware
    protocols. *)

val closer : t -> from:Addr.host_id -> Addr.host_id -> Addr.host_id -> bool
(** [closer t ~from a b] is [base_rtt t from a < base_rtt t from b],
    computed without allocating: the comparison proximity-aware protocols
    make each time they weigh a peer against the one they hold. *)

val messages_sent : t -> int
val bytes_sent : t -> int
val messages_dropped : t -> int
(** Counters over the lifetime of the network (monitoring). *)

(** {1 Cross-net routing — the parallel engine's and live loop's hook}

    Under {!Fabric}, each partition owns a [Net.t] over its own copy of
    the testbed state; a live daemon's net serves its one host. A send
    whose destination host is served by another net runs only the
    sender-side half of the store-and-forward model here — uplink
    queueing and propagation — and is handed to [route]; the
    destination's net completes it with {!deliver_remote}, the same
    receiver half a local send runs, against its own downlink/liveness
    state. Works on any testbed. Plain single-engine nets never touch
    any of this. *)

val set_remote :
  t ->
  local:(Addr.host_id -> bool) ->
  route:
    (src:Addr.t ->
    dst:Addr.t ->
    size:int ->
    arrival:float ->
    up_wait:float ->
    ctx:Splay_obs.Obs.ctx ->
    payload ->
    unit) ->
  unit
(** Install the hook. [local] says whether a destination host is served
    by this net; [route] receives each non-local message after the
    sender-side model ran: [arrival] is the absolute time the last byte
    reaches the destination's downlink (uplink wait + transmission +
    propagation — at least the latency model's lookahead in the future),
    [up_wait] the uplink queueing already incurred (for the link-wait
    histogram), [ctx] the sender's trace context. *)

val deliver_remote :
  t ->
  ?size:int ->
  src:Addr.t ->
  dst:Addr.t ->
  up_wait:float ->
  ctx:Splay_obs.Obs.ctx ->
  payload ->
  unit
(** Receiver-side completion of a routed message; call it on the
    destination's net at the message's [arrival] time (Fabric does this
    from a {!Splay_sim.Par} mailbox). Applies downlink queueing,
    processing cost, then the usual liveness/handler checks at delivery:
    a message delivered this way lands at the instant the same send
    delivered locally would. *)
