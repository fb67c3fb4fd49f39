(** Conservative time-windowed parallel discrete-event engine.

    Splits ONE simulated deployment across partitions, each owning a
    full {!Engine}, and synchronizes them with safe time windows derived
    from lookahead — the minimum cross-partition one-way delay (get it
    from {!Splay_net.Latency.lookahead}). Within a window
    [\[tmin, tmin + lookahead)] every partition executes its local
    events freely; cross-partition traffic goes through per-(src,dst)
    mailboxes ({!post}) and is absorbed serially, by the coordinator at
    window barriers — never while partitions are executing — so no
    partition ever receives an event in its past (violations raise
    rather than corrupt causality) and absorption order cannot depend
    on domain count or timing.

    Determinism: a run is a pure function of [(seed, parts)] — results,
    traces and metrics are byte-identical whatever [?domains] executed
    it. Changing [parts] is a different (equally valid) schedule, the
    same way changing the seed is.

    Plumbing hosts/testbeds/nets onto partitions is
    {!Splay_net.Fabric}'s job; this module only knows engines, windows
    and mailboxes. *)

type t

type run_info = {
  windows : int;  (** barriers executed — virtual span / lookahead, roughly *)
  events_fired : int;  (** total across partitions *)
}

val create : ?seed:int -> lookahead:float -> parts:int -> unit -> t
(** [parts] independent engines with seed-derived RNG streams
    (partition 0 of a [parts = 1] run is exactly [Engine.create ~seed]).
    [lookahead] must be positive — it is the promise that no
    cross-partition message posted at time [s] arrives before
    [s + lookahead]. If a recording plane ([Obs.enabled] /
    [Obs.metrics_enabled]) is on at create time, each partition gets its
    own recording state (enable the planes {e before} calling this; do
    not nest a traced run inside a {!Pool} trial — span id bases would
    collide). *)

val lookahead : t -> float

val engine : t -> int -> Engine.t
(** Partition [i]'s engine — schedule the initial workload onto these. *)

val post : t -> src:int -> dst:int -> at:float -> (unit -> unit) -> unit
(** Enqueue a cross-partition event: [fn] runs on partition [dst]'s
    engine at virtual time [at]. Callable only from partition [src]'s
    executing domain (the mailbox is single-producer); [at] must respect
    lookahead, i.e. be at least the sender's current time plus
    {!lookahead} — {!run} fails loudly if a post lands in the receiver's
    past. *)

val run : ?domains:int -> t -> run_info
(** Drive all partitions to completion (every queue empty, every mailbox
    drained), using up to [domains] worker domains (default [parts];
    clamped to [parts] and, via {!Dpool.effective}, to the machine's
    cores). Single-shot per [t]. When recording planes are on, partition
    recordings are merged into the caller's state in partition order
    after the last window. @raise Invalid_argument if any partition
    engine has a perturbation policy installed (nemesis schedules are
    sequential-only) or if the run already happened. *)
