(** Deterministic tracing and metrics for the whole stack.

    The paper's evaluation is built from log collection and per-host
    measurements; [Obs] is the reproduction's equivalent: one global
    registry of hierarchical trace {e spans} and {e counters / gauges /
    histograms}, shared by the engine, the RPC layer, the network model and
    the controller. Every record is keyed on the engine's {e virtual}
    clock, never the wall clock, so with a fixed seed the JSONL trace of a
    run is bit-for-bit identical across executions and machines.

    The API is zero-cost when disabled: every instrumentation site checks
    the single {!enabled} flag once; with it off, no span is allocated and
    no metric is touched (instrumented hot paths allocate nothing). Sites
    that build attribute lists must guard themselves:

    {[
      if !Obs.enabled then
        Obs.event ~attrs:[ ("host", string_of_int h) ] "ctl.blacklist_push"
    ]}

    Metric objects ({!counter}, {!gauge}, {!histogram}) are created once at
    the instrumentation site (typically at module initialisation) and are
    cheap handles afterwards; creating the same name twice returns the
    same handle.

    Multicore: every piece of mutable recording state — virtual clock,
    trace buffer, span/trace numbering, current context, metric cells —
    is {e domain-local} ([Domain.DLS]). Trials running on different
    domains record into disjoint state; the trial pool
    ({!Splay_sim.Pool}) brackets each trial with {!capture} and merges
    the snapshots back in trial-index order with {!absorb}, so the final
    trace and metrics are independent of how trials were spread over
    domains. Handle registration is mutex-guarded and safe from any
    domain. *)

val enabled : bool ref
(** Master switch for the {e trace} plane, off by default. Check it once
    per site before building attribute lists; the recording primitives
    also check it. Toggle it only outside parallel sections (before
    spawning worker domains): the flag itself is process-global. *)

val metrics_enabled : bool ref
(** Master switch for the {e metrics} plane (windowed rollups), off by
    default and independent of {!enabled}: a million-node run can keep
    bounded-memory percentile telemetry with tracing off. With it on,
    every counter/gauge/histogram sample also lands in the current
    virtual-time window (see {!Rollup}). Spans stay trace-only. Same
    toggling discipline as {!enabled}. *)

val set_trace_cap : int -> unit
(** Bound the trace buffer to at most [n] records per recording state
    (each captured trial gets its own budget); [0] (the default) means
    unlimited. Records past the cap are counted in {!trace_dropped}
    instead of stored; span ids, context and {!span_count} advance
    exactly as without the cap, so the stored prefix is byte-identical
    to an uncapped run's. *)

val trace_dropped : unit -> int
(** Trace records refused at the cap since the last {!reset} (absorbed
    snapshots included). *)

type clock = { mutable v : float }
(** A virtual-clock cell: [v] is the current virtual time. Read in place,
    it costs the metrics plane no allocation per sample. *)

val set_clock : clock -> unit
(** Install the virtual-clock cell. {!Splay_sim.Engine.create} installs
    its own, so the most recently created engine stamps the trace. *)

val reset : unit -> unit
(** Clear the calling domain's trace buffer, zero every registered metric,
    restart span and trace numbering and clear the current context. Call
    between independent runs that must produce independent traces. *)

(** {1 Capture / absorb — deterministic multi-domain merge}

    The unit of isolation is a {e trial}: an independent simulation run
    (own engine, own seed). {!capture} runs a trial against a fresh
    domain-local state and returns everything it recorded as an inert
    {!snapshot}; {!absorb} merges a snapshot into the calling domain's
    state (trace appended, counters and histograms added, gauges taking
    the snapshot's last value). Absorbing snapshots in trial-index order
    makes the merged output a pure function of the trial list — identical
    whether the trials ran on one domain or eight. *)

type snapshot
(** What one captured trial recorded. Immutable and domain-independent. *)

val capture : ?ids_base:int -> (unit -> 'a) -> 'a * snapshot
(** [capture ~ids_base f] runs [f ()] against a fresh domain-local state
    whose span/trace numbering starts at [ids_base + 1] (give each trial a
    distinct base so ids never collide in the merged trace), then restores
    the previous state. When the layer is disabled this is just [f ()]
    plus an empty snapshot. *)

val absorb : snapshot -> unit
(** Merge a snapshot into the calling domain's state. Order matters for
    gauges (last absorbed wins) and for trace record order — absorb in
    trial-index order. *)

(** {2 Long-lived recording states}

    {!capture} brackets one function call; the parallel engine
    ({!Splay_sim.Par}) needs the same isolation with a different
    lifetime: one state per {e partition}, kept alive across many time
    windows, installed on whichever domain executes the partition next,
    and snapshotted once when the whole run ends. These are the pieces
    {!capture} is built from. *)

type rec_state
(** A private recording state (trace buffer, id allocators, metric
    cells), not yet attached to any domain. Mutable: install it on at
    most one domain at a time. *)

val state_create : ?ids_base:int -> unit -> rec_state
(** Fresh state with span/trace numbering starting at [ids_base + 1]
    (default 0 — give each concurrent state a distinct base, as
    {!capture} does per trial). *)

val state_install : rec_state -> rec_state
(** Make the given state the calling domain's current recording state
    and return the previously installed one (re-install that when done
    — the bracket discipline of {!capture}, split in two). *)

val state_snapshot : rec_state -> snapshot
(** Render everything the state recorded as an inert {!snapshot} for
    {!absorb}. Call it once, after the state's last window, with the
    state no longer installed anywhere. *)

(** {1 Trace context}

    Causality across tasks and nodes. A context names a position in the
    causal DAG: the trace ([tid]) a computation belongs to and the span
    ([sid]) it is currently inside. The engine captures the current
    context at every [schedule]/[spawn]/[await] and restores it when the
    event fires or the process resumes, so context follows the flow of
    control; the RPC layer additionally carries it inside the request
    envelope, so a handler's spans are children of the caller's span
    {e across nodes}. Under a fixed seed, context assignment is part of
    the byte-identical trace. *)

type ctx = { tid : int; sid : int }
(** [tid = 0] means "no trace": a span started there opens a fresh trace. *)

val null_ctx : ctx

val current : unit -> ctx
(** The ambient context ({!null_ctx} when none). Allocation-free. *)

val set_current : ctx -> unit
(** Install a context (schedulers and transports use this to propagate;
    instrumentation sites normally just start spans). *)

(** {1 Spans}

    A span is a named interval of virtual time with string attributes and
    a position in the causal DAG; {!null_span} is the disabled sentinel,
    so starting a span while disabled allocates nothing. *)

type span

val null_span : span

val span : ?attrs:(string * string) list -> ?parent:ctx -> string -> span
(** Begin a span at the current virtual instant, as a child of [parent]
    (default: the current context; a fresh root/trace if there is none).
    The new span becomes the current context until {!finish}. Returns
    {!null_span} (and records nothing) when disabled. *)

val finish : ?attrs:(string * string) list -> span -> unit
(** End a span; extra attributes (e.g. the outcome) are attached to the
    end record. The current context reverts to what it was when the span
    was started, so siblings started afterwards do not nest under it.
    Finishing {!null_span} is a no-op. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Record an instantaneous point event, attributed to the current
    context. Attribute keys must not collide with the record's own fields
    ([t]/[ev]/[sid]/[tid]/[pid]/[name]). *)

val span_count : unit -> int
(** Number of spans started since the last {!reset} (tests use this to
    assert the disabled mode records nothing). *)

(** {1 Metrics} *)

type counter

val counter : string -> counter
(** Find-or-create a monotonic integer counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

type gauge

val gauge : string -> gauge
(** Find-or-create a last-value gauge; the high-water mark is kept too. *)

val gauge_set : gauge -> float -> unit

type histogram

val histogram : string -> histogram
(** Find-or-create a histogram: a {!Splay_stats.Sink} (exact count / sum /
    min / max plus its log-bucket table). *)

val observe : histogram -> float -> unit

(** {1 Rollup — time-windowed metrics on the virtual clock}

    With {!metrics_enabled} on, every sample is aggregated into the
    window [w = floor(t / window)] of a small ring; advancing past a
    window renders one compact JSON line per touched metric (counters
    gain a windowed rate, gauges a windowed last/max, histograms
    count/sum/min/max, p50/p90/p99/p999 and the bucket counts of their
    window's {!Splay_stats.Sink}, O(1) memory per histogram). Each metric's
    run-cumulative cell, merged exactly across trials, answers whole-run
    quantiles at any point ({!Rollup.quantile}). Domain-local like the
    rest of the recording state and merged through {!capture}/{!absorb}
    in trial order, so multi-domain dumps are byte-identical to
    single-domain ones. *)

module Rollup : sig
  val set_window : float -> unit
  (** Window width in virtual seconds (default 10.0; non-positive values
      are ignored). Set before arming the metrics plane — the width is
      baked into already-rendered rows. *)

  val window : unit -> float

  val clear : unit -> unit
  (** Drop the calling domain's rollup state (rendered rows, ring) and
      blank its run-cumulative cells: counters, gauges and histograms
      alike. Use between back-to-back runs whose metrics must not bleed
      into each other. *)

  val quantile : histogram -> float -> float
  (** Run-cumulative q-quantile ({!Splay_stats.Sink.quantile}: within one
      bucket of the true value, exact at q = 0 and q = 1); 0.0 when the
      histogram has no samples. *)

  val count : histogram -> int
  (** Run-cumulative sample count. *)

  val note : ?attrs:(string * string) list -> string -> unit
  (** Append a free-form row ([{"m":…,"kind":"note","w":…,"t":…,…attrs}])
      at the current virtual instant — controller status sampling uses
      this for per-job top-host rows. No-op unless {!metrics_enabled}. *)

end

(** {1 Output} *)

val trace_jsonl : unit -> string
(** The trace so far, one JSON object per line, in record order.
    Span-begin records are
    [{"t":…,"ev":"B","sid":…,"tid":…,"pid":…,"name":…,…attrs}] where
    [sid] is the span id, [tid] its trace and [pid] the parent span
    ([0] for a root); span-end records are [{"t":…,"ev":"E","sid":…,…}]
    and point events [{"t":…,"ev":"P","tid":…,"pid":…,"name":…,…}].
    Deterministic under a fixed seed; {!Trace_analysis} consumes this
    format. *)

val metrics_jsonl : unit -> string
(** Every registered metric with a non-default value, one JSON object per
    line, sorted by metric name (so output never depends on hash order). *)

val dump_jsonl : path:string -> unit -> unit
(** Write {!trace_jsonl} followed by {!metrics_jsonl} to [path]. *)

val metrics_plane_jsonl : unit -> string
(** The metrics-plane dump: a [{"schema":"splay-metrics/2","window":…}]
    header, the windowed rollup rows (evicted windows first, then the
    still-open ones in window order), then one
    cumulative whole-run row per touched metric with [w:-1]. A histogram
    row carries its bucket counts as a ["buckets"] field
    ({!Splay_stats.Sink.encode}) and its [min]/[max] at round-trip
    precision, so readers merge rows exactly; its p50..p999 fields are
    for people. {!Metrics_analysis} and [splay top] consume this
    format. *)

val dump_metrics : path:string -> unit -> unit
(** Write {!metrics_plane_jsonl} to [path]. *)

val report : unit -> unit
(** Render a summary of all touched metrics as {!Splay_stats.Report}
    tables on stdout. *)

val json_string : string -> string
(** Quote and escape a string exactly as the trace emitter does — for
    sibling emitters (the controller's log dump) that must stay
    parseable by the same toolkit. *)

val add_time_value : Buffer.t -> float -> unit
(** Append a timestamp formatted exactly as the trace emitter renders the
    clock: the bytes of [Printf.sprintf "%.6f"], produced by fixed-point
    integer emission on the common range. Exposed so tests can pin the
    equivalence and so sibling emitters render times identically. *)
