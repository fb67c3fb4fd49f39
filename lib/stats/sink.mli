(** Streaming statistics sink: the bounded-memory sketch.

    Samples are counted in the {!Hdr} log-bucket table — the same one the
    metrics plane's histograms use — alongside exact running moments
    (Welford) and exact min/max. Memory is the fixed 513-slot table
    whatever the stream length; a quantile lies in the same bucket as the
    true one, so its error is at most one bucket width (1/8 of the value
    at worst). [count], [mean], [stddev], [min_value] and [max_value] are
    exact; only interior quantiles are approximated.

    The sketch is what lets a million-node run record per-operation
    latency without holding a million floats per metric. Callers that
    want exact order statistics of a few thousand samples keep a {!Dist}.
    Sketches merge exactly and deterministically: the quantiles of
    {!merge} are those of one sketch fed both streams. *)

type t

val sketch : unit -> t
(** An empty sink: a {!Hdr} bucket table plus exact moments and
    min/max. *)

val add : t -> float -> unit

val count : t -> int
(** Number of samples added. *)

val is_empty : t -> bool

val mean : t -> float
(** Exact; 0 when empty. *)

val stddev : t -> float
(** Exact (population); 0 with fewer than 2 samples. *)

val min_value : t -> float

val max_value : t -> float
(** Exact. Raise [Invalid_argument] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0,1\]], by rank inside a bucket
    ({!Hdr.quantile}); [q = 0] and [q = 1] return the exact min/max.
    Raises [Invalid_argument] if empty or [q] out of range. *)

val merge : t -> t -> t
(** A new sink summarizing both streams: counts, moments and min/max
    merge exactly, and the bucket counts add. *)

val to_dist : t -> Dist.t
(** Each sample's bucket midpoint ({!Hdr.iter}) as a {!Dist}, for
    histogram/PDF helpers that need raw data;
    [Dist.count (to_dist t) = count t]. *)
