(** Log-linear bucket histogram: the one quantile sketch.

    HDR-style layout: 8 linear sub-buckets per power of two over binary
    exponents −19..44 (≈ 9.5e-7 .. 1.8e13), 513 slots in all. Bucket 0
    holds zero and negative samples; values below or above the exponent
    range clamp into the end buckets. Memory is the fixed table, allocated
    on the first sample, whatever the stream length.

    The table keeps counts only; its owner tracks the exact min and max
    and passes them to the queries, which clamp every bucket's bounds to
    that range. A quantile interpolates by rank inside its bucket, so it
    lies in the same bucket as the true order statistic: its error is at
    most one bucket width, 1/8 of the value in the worst case. Two tables
    merge exactly — counts add — so the quantiles of a merge are those of
    one table fed both streams. {!encode} and {!decode} carry a table
    through text (the metrics-plane dump) without losing a count. *)

type t

val create : unit -> t
(** An empty table; no slots are allocated until the first sample. *)

val index : float -> int
(** The bucket a sample lands in. *)

val add_index : t -> int -> unit
(** Count one sample in bucket [i] (an {!index} result), for callers
    feeding one sample to several tables. *)

val add : t -> float -> unit

val count : t -> int

val clear : t -> unit
(** Zero every count, keeping the slots. *)

val merge_into : into:t -> t -> unit
(** Add the second table's counts to [into]. *)

val bounds : int -> float * float
(** Bucket [i]'s nominal [\[lo, hi)] range: [(0, 0)] for bucket 0, a lower
    bound of 0 for the underflow bucket and [infinity] above the
    overflow one. *)

val quantile : t -> min:float -> max:float -> float -> float
(** [quantile t ~min ~max q], [q] in [\[0,1\]]: the rank [q * count] is
    located in its bucket and interpolated linearly across the bucket's
    bounds clamped to [\[min, max\]]. [q = 0] and [q = 1] return [min] and
    [max]. 0 on an empty table. *)

val fraction_le : t -> min:float -> max:float -> float -> float
(** Fraction of samples [<= x], interpolated the same way (the inverse
    of {!quantile}). 0 on an empty table. *)

val encode : Buffer.t -> t -> unit
(** Append the non-empty buckets as ["index:count"] pairs, ascending by
    index and joined by [','] (nothing for an empty table). *)

val decode : n:int -> string -> t option
(** The table {!encode} wrote. [None] unless every pair names a bucket in
    range with a positive count and the counts sum to [n]. *)

val iter : t -> min:float -> max:float -> (float -> int -> unit) -> unit
(** [f v c] for each non-empty bucket in increasing order, where [v] is
    the midpoint of its clamped bounds and [c] its count. *)
