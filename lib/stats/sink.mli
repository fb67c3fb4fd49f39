(** Streaming statistics sink: one write-side interface, two storage
    policies.

    Experiments push samples into a sink and query count / moments /
    quantiles at the end; which backend answers is the caller's choice at
    creation time and invisible afterwards:

    - {!exact} keeps every sample (a {!Dist} underneath). Quantiles are
      exact order statistics; memory grows linearly with the stream.
    - {!sketch} counts samples in the {!Hdr} log-bucket table, the same
      one the metrics plane's histograms use, plus exact running moments
      (Welford) and exact min/max. Memory is the fixed 513-slot table
      regardless of stream length; a quantile lies in the same bucket as
      the true one, so its error is at most one bucket width (1/8 of the
      value at worst).

    The sketch is what lets a million-node run record per-operation
    latency without holding a million floats per metric. [count],
    [mean], [stddev], [min_value] and [max_value] are exact on both
    backends — only interior quantiles are approximated by the sketch.
    Sketches merge exactly and deterministically: the quantiles of
    {!merge} are those of one sketch fed both streams. *)

type t

val exact : unit -> t
(** Keep every sample; exact quantiles. *)

val sketch : unit -> t
(** Bounded memory: a {!Hdr} bucket table plus exact moments and
    min/max. *)

val name : t -> string
(** ["exact"] or ["sketch"] — for report labels. *)

val add : t -> float -> unit

val count : t -> int
(** Number of samples added — exact on both backends. *)

val is_empty : t -> bool

val mean : t -> float
(** Exact on both backends; 0 when empty. *)

val stddev : t -> float
(** Exact (population) on both backends; 0 with fewer than 2 samples. *)

val min_value : t -> float

val max_value : t -> float
(** Exact on both backends. Raise [Invalid_argument] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0,1\]]; linear interpolation between
    order statistics (exact), or by rank inside a bucket ({!Hdr.quantile},
    sketch). [q = 0] and [q = 1] return the exact min/max on both
    backends. Raises [Invalid_argument] if empty or [q] out of range. *)

val percentile : t -> float -> float
(** [percentile t p] = [quantile t (p /. 100.)]. *)

val percentiles : t -> float list -> float list

val cdf_curve : t -> ?steps:int -> unit -> (float * float) list
(** Evenly spaced [(x, fraction <= x)] curve over the sample range, the
    shape {!Report.cdf_table} prints. Empty list when empty. *)

val merge : t -> t -> t
(** A new sink summarizing both streams. Moments, min/max and count
    merge exactly on every backend combination; exact+exact keeps every
    sample, and any combination involving a sketch yields a sketch whose
    bucket counts are the sum of both sides' (an exact side's samples are
    bucketed first). *)

val to_dist : t -> Dist.t
(** The samples as a {!Dist}, for handing to histogram/PDF helpers that
    need raw data: every sample for an exact sink, each sample's bucket
    midpoint for a sketch ({!Hdr.iter}). Either way
    [Dist.count (to_dist t) = count t]. *)
