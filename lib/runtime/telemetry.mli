(** Per-host resource telemetry sampled into the metrics plane.

    The paper's splayd reports each instance's load and resource
    consumption against its sandbox caps; these samplers are the
    reproduction's equivalent, feeding rollup histograms
    ([host.mem_bytes], [host.mem_frac] — fraction of the sandbox memory
    cap, finite caps only —, [host.sockets], [host.fs_bytes],
    [host.net_bytes_sent], [host.fibers], [host.inflight_rpcs]) and
    engine gauges ([engine.pending_events], [telemetry.sampled_hosts]).
    Everything goes through {!Splay_obs.Obs}, so samples are no-ops
    unless a plane is enabled, land in the current virtual-time window
    under {!Splay_obs.Obs.metrics_enabled}, and merge deterministically
    through capture/absorb. *)

val inflight_rpcs : Env.t -> int
(** Outstanding RPC calls of this instance (0 when it never called). *)

val sample_envs : ?max:int -> Env.t array -> unit
(** Sample a deterministic strided subset of at most [max] (default 1024)
    non-stopped instances — bounded sampler cost at million-instance
    scale — and set [telemetry.sampled_hosts] to the count taken. *)

val sample_engine : Splay_sim.Engine.t -> unit
(** Record the engine's pending-event count. *)

val monitor : ?interval:float -> Splay_sim.Engine.t -> (unit -> unit) -> unit
(** [monitor eng f] runs [f] (plus {!sample_engine}) every [interval]
    virtual seconds (default: the rollup window width) while the engine
    has other pending work, then stops — so an un-drained run still
    terminates. Schedule it before starting the workload. *)
