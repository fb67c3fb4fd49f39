(** Host models for the three deployment environments of the paper.

    PlanetLab is modelled synthetically (no live network here): pairwise
    base delays come from 2-D virtual coordinates, per-message jitter is
    lognormal, and per-host responsiveness is a heavy-tailed service-time
    distribution calibrated against Figure 3 of the paper (17% of hosts
    answer a 20 KB probe within 250 ms; over 45% need more than 1 s).
    ModelNet hosts attach to a {!Topology.t} transit-stub graph. Cluster
    hosts sit on a 1 Gbps switched LAN. Mixed testbeds combine PlanetLab and
    ModelNet hosts, crossing a WAN gateway. *)

type kind = Planetlab | Modelnet | Cluster

type host = {
  id : Addr.host_id;
  kind : kind;
  mutable up : bool;
  coord : float * float; (* virtual coordinates, seconds of one-way delay *)
  load_factor : float; (* >= 1, multiplies per-message processing cost *)
  slowness : float; (* mean of the heavy-tailed service time (seconds) *)
  bw_up : float; (* bytes/second *)
  bw_down : float;
  stub : Topology.router; (* attachment for Modelnet/Cluster hosts *)
  mem_mb : float;
  mutable up_busy : float; (* uplink busy-until (absolute seconds) *)
  mutable down_busy : float;
  mutable service_mult : float; (* contention multiplier, raised by the daemon model *)
  host_rng : Splay_sim.Rng.t;
}

type t

val planetlab : ?n:int -> Splay_sim.Rng.t -> t
(** [n] defaults to 450 hosts, matching the experimental setup. *)

val modelnet : ?hosts:int -> ?bandwidth:float -> ?topology:Topology.t -> Splay_sim.Rng.t -> t
(** [hosts] defaults to 1,100 on a 500-router transit-stub graph;
    [bandwidth] defaults to 10 Mbps (in bytes/second) on every host. *)

val cluster : ?n:int -> ?mem_mb:float -> Splay_sim.Rng.t -> t
(** [n] defaults to 11 dual-core 2 GB machines on a 1 Gbps switch. *)

val mixed : planetlab:int -> modelnet:int -> Splay_sim.Rng.t -> t
(** PlanetLab hosts first (ids [0 .. planetlab-1]), then ModelNet hosts. *)

val synthetic :
  ?latency:Latency.t ->
  ?bw:float ->
  ?proc_cost:float ->
  ?mem_mb:float ->
  hosts:int ->
  Splay_sim.Rng.t ->
  t
(** Million-host backend: no per-host records at all. Base delays come
    from the {!Latency.t} model ([latency] defaults to
    [Latency.synthetic ~seed:(a draw from the rng)]), every host shares
    the same [bw] (default 10 Mbps, in bytes/second) and [proc_cost]
    (default 0.1 ms), and the only per-host state is the pair of
    link-busy clocks (two unboxed floats) plus one up/down bit — a few
    words per host instead of a few hundred, which is what lets a single
    simulated deployment reach 10^6 hosts. Hosts never jitter (delays are
    the model's stable answers), and {!host} / {!hosts} raise
    [Invalid_argument]: there are no records to hand out. *)

(** Struct-of-arrays storage behind {!synthetic} testbeds. The network
    send path indexes these arrays directly by host id — the compact
    counterpart of the [host]-record fast path. *)
module Compact : sig
  type t = {
    n : int;
    lat : Latency.t;
    up_bits : Bytes.t;  (** 1 byte per host; 0 = down *)
    bw_up : float;  (** shared uplink bandwidth, bytes/second *)
    bw_down : float;
    up_busy : float array;  (** per-host uplink busy-until, unboxed *)
    down_busy : float array;
    proc_cost : float;  (** shared per-message processing cost, seconds *)
    mem_mb : float;
    c_rng : Splay_sim.Rng.t;  (** control-plane service-time stream *)
  }
end

val compact : t -> Compact.t option
(** The struct-of-arrays state when this is a {!synthetic} testbed. *)

val host_up : t -> Addr.host_id -> bool

val set_host_up : t -> Addr.host_id -> bool -> unit
(** Up/down flag, uniform over record-backed and compact testbeds. *)

val with_extra_host : t -> t * Addr.host_id
(** Append one well-provisioned LAN-class host — where the trusted
    controller processes run. Returns the extended testbed and the new
    host's id (always the last index). *)

val size : t -> int

val host : t -> Addr.host_id -> host

val rng : t -> Splay_sim.Rng.t

val base_delay : t -> Addr.host_id -> Addr.host_id -> float
(** Stable one-way propagation delay (no jitter); what a proximity-aware
    protocol can estimate by pinging. *)

val base_delay_to : t -> Splay_sim.Eheap.fcell -> Addr.host_id -> Addr.host_id -> unit
(** [base_delay_to t cell a b] stores [base_delay t a b] in [cell], unboxed
    (the form of {!Latency.delay_to}). *)

val delay_h : t -> host -> host -> float
(** One-way propagation delay for one message: {!base_delay} plus jitter
    (PlanetLab hosts only; emulated and LAN links are stable). Keyed by
    host records: the send path already holds both endpoints for the
    link queues. *)

val service_delay : t -> Addr.host_id -> float
(** Draw a host service time for a control-plane request (process fork,
    probe answer): exponential with the host's [slowness] mean, scaled by
    its contention multiplier. *)

val service_mult : t -> Addr.host_id -> float
(** Contention multiplier for application service time, uniform over
    representations: per-host record where one exists, 1.0 on
    {!synthetic} testbeds (which model contention in the network layer
    only). *)

val proc_cost_h : host -> float
(** Per-message processing cost on this host for data-plane traffic:
    sub-millisecond, scaled by [load_factor] and [service_mult]. *)
