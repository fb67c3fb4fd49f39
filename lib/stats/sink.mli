(** Streaming statistics sink: the one histogram.

    Samples are counted in a log-linear bucket table, HDR-style: 8 linear
    sub-buckets per power of two over binary exponents −19..44 (≈ 9.5e-7
    .. 1.8e13), 513 slots in all. Bucket 0 holds zero and negative
    samples; values below or above the exponent range clamp into the end
    buckets. Beside the table the sink keeps the exact count, sum, min and
    max, unboxed, so {!add} allocates nothing. Memory is the fixed table,
    allocated on the first sample, whatever the stream length.

    [count], [mean], [min_value] and [max_value] are exact; only interior
    quantiles are approximated. A quantile interpolates by rank inside
    its bucket, whose bounds are clamped to the exact [\[min, max\]], so it
    lies in the same bucket as the true order statistic: its error is at
    most one bucket width, 1/8 of the value in the worst case.

    The sink is what lets a million-node run record per-operation latency
    without holding a million floats per metric; the metrics plane keeps
    one per histogram and window. Callers that want exact order
    statistics of a few thousand samples keep a {!Dist}. Sinks merge
    exactly and deterministically: the quantiles of {!merge} are those of
    one sink fed both streams, and {!encode}/{!decode} carry a sink
    through text (the metrics-plane dump) without losing a count. *)

type t

val sketch : unit -> t
(** An empty sink; no bucket slots are allocated until the first
    sample. *)

val add : t -> float -> unit

val count : t -> int
(** Number of samples added. *)

val is_empty : t -> bool

val sum : t -> float
(** Exact (summed in arrival order); 0 when empty. *)

val mean : t -> float
(** [sum / count]; 0 when empty. *)

val min_value : t -> float

val max_value : t -> float
(** Exact. Raise [Invalid_argument] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0,1\]]: the rank [q * count] is located
    in its bucket and interpolated linearly across the bucket's bounds
    clamped to [\[min, max\]]; [q = 0] and [q = 1] return the exact
    min/max. Raises [Invalid_argument] if empty or [q] out of range. *)

val fraction_le : t -> float -> float
(** Fraction of samples [<= x], interpolated the same way (the inverse
    of {!quantile}). 0 when empty. *)

val bucket : float -> float * float
(** The nominal [\[lo, hi)] range of the bucket a sample lands in:
    [(0, 0)] for zero and negative samples, a lower bound of 0 for the
    underflow bucket and [infinity] above the overflow one. *)

val clear : t -> unit
(** Back to empty, keeping the bucket slots. *)

val merge_into : into:t -> t -> unit
(** Add the second sink's samples to [into]: counts and sums add, min and
    max merge, bucket counts add. *)

val merge : t -> t -> t
(** A new sink summarizing both streams ({!merge_into} twice). *)

val encode : Buffer.t -> t -> unit
(** Append the non-empty buckets as ["index:count"] pairs, ascending by
    index and joined by [','] (nothing for an empty sink). *)

val decode : n:int -> sum:float -> min:float -> max:float -> string -> t option
(** The sink whose buckets {!encode} wrote, with the given exact
    aggregates. [None] unless every pair names a bucket in range with a
    positive count and the counts sum to [n]. *)

val to_dist : t -> Dist.t
(** Each sample's bucket midpoint (bounds clamped to [\[min, max\]]) as a
    {!Dist}, for histogram/PDF helpers that need raw data;
    [Dist.count (to_dist t) = count t]. *)
