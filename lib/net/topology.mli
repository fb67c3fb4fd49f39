(** Transit-stub router topology, the ModelNet substitute.

    The paper's ModelNet deployment emulates 1,100 hosts on a 500-node
    transit-stub topology with 10 Mbps links; RTTs are 10 ms within a stub
    domain, 30 ms stub-stub / stub-transit, 100 ms transit-transit. We build
    the same family of graphs and compute path latencies with Dijkstra, so
    route delays emerge from the topology exactly as in the emulator. *)

type t

type router = int

val transit_stub :
  ?transits:int ->
  ?stubs_per_transit:int ->
  ?transit_transit_rtt:float ->
  ?stub_transit_rtt:float ->
  ?intra_stub_rtt:float ->
  Splay_sim.Rng.t ->
  t
(** Build a topology with [transits] transit routers (ring plus random
    chords) each serving [stubs_per_transit] stub routers. Defaults:
    10 transits, 49 stubs each (= 500 routers), RTTs 100 / 30 / 10 ms as in
    the paper's setup. *)

val router_count : t -> int

val stub_routers : t -> router array
(** The routers host machines may attach to. *)

val random_stub : t -> Splay_sim.Rng.t -> router

val delay_to : t -> Splay_sim.Eheap.fcell -> router -> router -> unit
(** [delay_to t cell a b] stores in [cell], unboxed, the one-way latency
    in seconds along the shortest path. Stub routers are
    leaves, so delays reduce to the two uplink weights plus a precomputed
    transit-to-transit distance matrix — O(1) per query, no Dijkstra
    re-runs. Within the same stub router, the intra-stub delay applies.

    This is {!Latency.matrix}'s primitive. Hosts should query delays
    through that backend (or {!Testbed.base_delay} on a testbed that
    embeds it), so precomputed and synthetic models stay
    interchangeable. *)

val intra_stub_delay : t -> float
(** One-way delay between two hosts attached to the same stub router. *)
