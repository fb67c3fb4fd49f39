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
  coord : float * float; (* virtual coordinates, seconds of one-way delay *)
  bw_up : float; (* bytes/second *)
  bw_down : float;
  stub : Topology.router; (* attachment for Modelnet/Cluster hosts *)
  mem_mb : float;
}
(** A host's immutable description, what deployment selection and the
    daemon's host model read. Its mutable state (up bit, link clocks,
    contention multiplier) and its service model (load factor, mean
    service time, service-time stream) live in the testbed's columns. *)

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
  hosts:int ->
  Splay_sim.Rng.t ->
  t
(** Million-host backend: no per-host records at all. Base delays come
    from the {!Latency.t} model ([latency] defaults to
    [Latency.synthetic ~seed:(a draw from the rng)]), every host shares
    the same [bw] (default 10 Mbps, in bytes/second) and [proc_cost]
    (default 0.1 ms), and the only per-host state is the pair of
    link-busy clocks (two unboxed floats) plus one up/down byte — a few
    words per host instead of a few hundred, which is what lets a single
    simulated deployment reach 10^6 hosts. Hosts never jitter (delays are
    the model's stable answers), and {!host} raises [Invalid_argument]:
    there are no records to hand out. *)

val has_records : t -> bool
(** [false] exactly on a {!synthetic} testbed. *)

(** Per-host link state as columns indexed by host id, the same on every
    testbed: the network send path reads and writes them directly. The
    up bits and busy clocks hold one entry per host. The link parameters
    hold one entry per host on a record testbed and one shared entry on a
    {!synthetic} one: host [h]'s is at index [h land per_host]. *)
type links = private {
  up : Bytes.t;  (** 1 byte per host; 0 = down *)
  up_busy : float array;  (** uplink busy-until (absolute seconds), unboxed *)
  down_busy : float array;
  per_host : int;  (** [-1] on a record testbed, [0] on a synthetic one *)
  bw_up : float array;  (** bytes/second *)
  bw_down : float array;
  proc_cost : float array;
      (** per-message processing cost (seconds) for data-plane traffic:
          [0.000_1 *. load_factor *. service_mult] on a record testbed *)
}

val links : t -> links

val host_up : t -> Addr.host_id -> bool

val set_host_up : t -> Addr.host_id -> bool -> unit

val with_extra_host : t -> t * Addr.host_id
(** A copy with one well-provisioned LAN-class host appended — where the
    trusted controller processes run. Returns the extended testbed and
    the new host's id (always the last index). The copy's hosts start up
    and idle, with multiplier 1. *)

val size : t -> int

val host : t -> Addr.host_id -> host

val rng : t -> Splay_sim.Rng.t

val base_delay : t -> Addr.host_id -> Addr.host_id -> float
(** Stable one-way propagation delay (no jitter); what a proximity-aware
    protocol can estimate by pinging. *)

val base_delay_to : t -> Splay_sim.Eheap.fcell -> Addr.host_id -> Addr.host_id -> unit
(** [base_delay_to t cell a b] stores [base_delay t a b] in [cell], unboxed
    (the form of {!Latency.delay_to}). *)

val delay_to : t -> Splay_sim.Eheap.fcell -> Addr.host_id -> Addr.host_id -> unit
(** One-way propagation delay for one message, stored in the cell:
    {!base_delay} plus jitter drawn from the testbed's stream when either
    end is a PlanetLab host (emulated and LAN links are stable). *)

val service_delay : t -> Addr.host_id -> float
(** Draw a host service time for a control-plane request (process fork,
    probe answer): exponential with the host's mean service time, scaled
    by its contention multiplier. *)

val service_mult : t -> Addr.host_id -> float
(** Contention multiplier for application service time: 1.0 unless the
    daemon's host model raised it; always 1.0 on a {!synthetic} testbed,
    which models contention in the network layer only. *)

val set_service_mult : t -> Addr.host_id -> float -> unit
(** Set a host's contention multiplier (the daemon's host model does);
    its processing cost follows. Raises [Invalid_argument] on a
    {!synthetic} testbed. *)
