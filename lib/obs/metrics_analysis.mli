(** Offline analysis of metrics-plane dumps — the consumer behind
    [splay top].

    Loads a [splay-metrics/2] JSONL file ({!Obs.dump_metrics}): the header
    supplies the window width, every other line is a windowed rollup row
    ([w >= 0]), a whole-run cumulative row ([w = -1]) or a status note.
    Rows keep their raw field lists, so files written by a newer {!Obs}
    with extra fields still load.

    A histogram row carries its {!Splay_stats.Hdr} bucket counts, and
    every quantile here is read from buckets, never from the row's
    rendered p50..p999. A multi-trial dump carries each trial's windows
    spliced in trial order, so one (window, metric) pair may appear
    several times; the aggregations here merge them — counters add,
    gauges keep the last value, histograms add [n]/[sum], merge
    [min]/[max] and add bucket counts, so merged quantiles are exact to
    the table's bucket width. *)

type row = {
  r_metric : string;
  r_kind : string;  (** ["counter"], ["gauge"], ["hist"] or ["note"] *)
  r_w : int;  (** window index; [-1] = whole-run cumulative *)
  r_fields : (string * string) list;  (** raw fields, in file order *)
  r_hist : Splay_stats.Hdr.t option;  (** a hist row's decoded buckets *)
}

type t = {
  window : float;  (** window width in virtual seconds *)
  rows : row list;  (** in file order *)
  windows : int list;  (** distinct [w >= 0], ascending *)
}

val int_field : row -> string -> int option

val load : string -> t
(** Parse a metrics dump from a string. Malformed lines are skipped; a
    hist row is malformed unless its buckets decode ({!Splay_stats.Hdr.decode})
    and sum to its [n]. Raises [Failure] when a header names another
    schema: a [splay-metrics/1] dump has no bucket counts to merge. *)

val load_file : string -> t
(** {!load} on a file's contents. Raises [Sys_error] as [open_in] does. *)

val rows_of : t -> w:int -> string -> row list
(** Non-note rows of one metric in one window (several for multi-trial
    dumps); [w = -1] selects the cumulative rows. *)

type hist_agg = {
  ha_n : int;
  ha_sum : float;
  ha_min : float;
  ha_max : float;
  ha_hdr : Splay_stats.Hdr.t;  (** the rows' buckets, added *)
  ha_q : float -> float;
      (** {!Splay_stats.Hdr.quantile} over the merged min/max; [nan] when
          empty *)
}

val hist_agg : row list -> hist_agg
(** Merge histogram rows (e.g. {!rows_of} output) into one summary. *)

val violation_rate : hist_agg -> threshold:float -> float
(** Share of the histogram's observations above [threshold], in [0, 1]:
    one minus {!Splay_stats.Hdr.fraction_le} of the merged buckets. [nan]
    when the histogram is empty. *)

val render : ?metric:string -> ?k:int -> ?slo:string * float -> t -> string
(** The [splay top] dashboard: one line per window (t0, global msgs/s,
    rpc/s, events/s, drops/s rates, and p50/p99/p999 of [metric] —
    default [rpc.latency], falling back to the first histogram present),
    then cumulative histogram summaries and the last [k] (default 5)
    status-note rows. Missing cells render as ["-"]. With [slo = (m,
    threshold)] each window line gains a violation-rate column — the
    {!violation_rate} of histogram [m] against [threshold] — plus a
    whole-run summary line. *)

val print_top : ?metric:string -> ?k:int -> ?slo:string * float -> t -> unit
(** Print {!render} on stdout. *)

val prometheus : t -> string
(** Prometheus text exposition of the whole-run cumulative rows: metric
    names prefixed [splay_] with non-alphanumerics mangled to [_];
    counters and gauges as their totals / last values, histograms as
    summaries (quantile labels plus [_sum]/[_count]). *)
