(** Open-loop load generation over compact virtual clients.

    The generator models millions of clients without a fiber, buffer or
    timer per client: the entire per-client state is one word of request
    count. Arrivals come from a non-homogeneous Poisson schedule (base
    [rate] modulated by the {!Splay_churn.Trace.diurnal} wave, realized
    by thinning), each arrival is attributed to a uniformly drawn virtual
    client, and the request joins its gateway's FIFO queue, drained by a
    lazily-spawned pool of at most [inflight] worker fibers per gateway.

    The schedule never waits for completions — offered load is what the
    arrival process says, not what the servers absorb — and latency is
    recorded from the {e intended} arrival time, so queueing behind a
    saturated gateway counts in full. This is the coordinated-omission
    correction: a closed-loop generator that blocks between requests
    silently under-reports exactly the overload latencies a serving
    benchmark exists to measure. *)

type op = Get of string | Put of string * string
type outcome = [ `Ok | `Miss | `Shed | `Failed ]

type config = {
  clients : int; (** virtual client population *)
  rate : float; (** mean offered requests/second over the whole population *)
  duration : float; (** seconds of offered load *)
  get_frac : float; (** fraction of arrivals that are gets (rest put) *)
  keys : int; (** key-space size; popularity is Zipf over ranks 1..keys *)
  zipf_s : float; (** Zipf exponent (default 1.0) *)
  value_size : int; (** bytes per stored value *)
  inflight : int; (** max concurrent requests per gateway *)
  diurnal_amplitude : float; (** arrival-wave amplitude (default 0.15) *)
  diurnal_period : float; (** seconds per arrival-wave cycle *)
}

val default : config

type stats = {
  mutable offered : int; (** arrivals generated by the schedule *)
  mutable ok : int;
  mutable misses : int;
  mutable shed : int; (** admission-control fast rejects observed *)
  mutable failed : int;
  lat : Splay_stats.Sink.t;
      (** completion - intended arrival, every sample counted in a
          {!Splay_stats.Sink.sketch}, so partitions merge exactly *)
  first_client : int;
      (** id of this partition's first client: partitions own
          contiguous slices of [0, clients), a pure function of
          [(clients, parts)], so domains runs split identically *)
  local_clients : int;
      (** how many clients this partition owns: clients [first_client]
          to [first_client + local_clients - 1]; 0 when it owns none *)
  mutable setup_words : int;
      (** heap words the generator's state reaches (this record, the
          Zipf table, the arrival RNG and the value string; the
          sketch's table is allocated at the first sample), counted by
          [Obj.reachable_words] — no collection is forced; divide by
          clients for the words-per-idle-client figure the bench
          records (0.002 at a million clients: a constant, no word per
          client) *)
}

val run :
  config ->
  seed:int ->
  part:int ->
  parts:int ->
  gateways:Splay_runtime.Env.t array ->
  issue:(int -> op -> outcome) ->
  stats
(** Install the dispatcher and worker pool for partition [part] (of
    [parts]) onto [gateways] (the gateway envs homed in this partition)
    and return the stats record they fill as the engine runs. [issue g
    op] performs one blocking operation through gateway [g]. The arrival
    stream is a private function of [(seed, part)] — independent of
    engine scheduling, worker count, and every other component's draws.
    Pass [part:0 parts:1] for sequential runs. *)
