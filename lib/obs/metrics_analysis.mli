(** Offline analysis of metrics-plane dumps — the consumer behind
    [splay top].

    Loads a [splay-metrics/2] JSONL file ({!Obs.dump_metrics}): the header
    supplies the window width, every other line is a windowed rollup row
    ([w >= 0]), a whole-run cumulative row ([w = -1]) or a status note.
    Rows keep their raw field lists, so files written by a newer {!Obs}
    with extra fields still load.

    A histogram row decodes into a {!Splay_stats.Sink} (its bucket counts
    and exact [n]/[sum]/[min]/[max]), and every quantile here is read
    from buckets, never from the row's rendered p50..p999. A multi-trial
    dump carries each trial's windows spliced in trial order, so one
    (window, metric) pair may appear several times; the aggregations here
    merge them — counters add, gauges keep the last value, histograms
    merge as sinks, so merged quantiles are exact to the bucket
    width. *)

type row = {
  r_metric : string;
  r_kind : string;  (** ["counter"], ["gauge"], ["hist"] or ["note"] *)
  r_w : int;  (** window index; [-1] = whole-run cumulative *)
  r_fields : (string * string) list;  (** raw fields, in file order *)
  r_hist : Splay_stats.Sink.t option;  (** a hist row, decoded *)
}

type t = {
  window : float;  (** window width in virtual seconds *)
  rows : row list;  (** in file order *)
  windows : int list;  (** distinct [w >= 0], ascending *)
}

val load : string -> t
(** Parse a metrics dump from a string. Malformed lines are skipped; a
    hist row is malformed unless its buckets decode ({!Splay_stats.Sink.decode})
    and sum to its [n]. Raises [Failure] when a header names another
    schema: a [splay-metrics/1] dump has no bucket counts to merge. *)

val render : ?metric:string -> ?k:int -> ?slo:string * float -> t -> string
(** The [splay top] dashboard: one line per window (t0, global msgs/s,
    rpc/s, events/s, drops/s rates, and p50/p99/p999 of [metric] —
    default [rpc.latency], falling back to the first histogram present),
    then cumulative histogram summaries and the last [k] (default 5)
    status-note rows. Missing cells render as ["-"]. With [slo = (m,
    threshold)] each window line gains a violation-rate column — the
    share of histogram [m]'s observations above [threshold], read off
    the merged buckets, ["-"] when it has none — plus a whole-run
    summary line. *)

val prometheus : t -> string
(** Prometheus text exposition of the whole-run cumulative rows: metric
    names prefixed [splay_] with non-alphanumerics mangled to [_];
    counters and gauges as their totals / last values, histograms as
    summaries (quantile labels plus [_sum]/[_count]). *)
