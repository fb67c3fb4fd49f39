(** Shared command-line plumbing for the observability layer.

    The bench harness and [splay_cli] accept the same flags; this module
    owns their parsing and the arm/dump lifecycle so the two front ends
    cannot drift:

    - [--obs] — enable the trace plane, print the metric summary at the end;
    - [--obs-trace=FILE] — enable the trace plane, dump the JSONL trace to FILE;
    - [--obs-trace-cap=N] — bound the trace buffer to N records
      ({!Obs.set_trace_cap}); a warning with the dropped count goes to
      stderr at the end of the run;
    - [--critical-path] — after dumping, print the critical-path latency
      breakdown of the slowest RPC in the trace (only takes effect
      alongside [--obs-trace=FILE]);
    - [--metrics-out=FILE] — enable the metrics plane (windowed rollups,
      {!Obs.metrics_enabled}), dump the [splay-metrics/2] JSONL to FILE
      at the end ([splay top FILE] renders it);
    - [--metrics-window=SECONDS] — rollup window width in virtual seconds
      (default 10). *)

val trace_path : string option ref
val metrics_path : string option ref
val metrics_window : float option ref

val parse_arg : string -> bool
(** [parse_arg a] consumes [a] if it is one of the flags above (setting the
    corresponding ref) and returns whether it did. Malformed values
    (non-numeric cap or window) print an error and exit 2. *)

val arm : unit -> unit
(** If {!active}, reset the collector, apply window/cap settings, and
    enable the requested plane(s). Call before the workload. *)

val finish : unit -> bool
(** Dump / summarize / analyze per the flags, then disable and reset both
    planes. Returns [false] if a dump failed (error already printed on
    stderr); callers decide the exit code. No-op ([true]) when neither
    plane was armed. *)
