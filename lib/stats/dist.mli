(** Sample collector with percentile / CDF / histogram queries.

    Each figure in the paper is a distribution (of delays, hops, completion
    times…); experiments push raw samples into a [t] and the bench harness
    queries the shapes to print. *)

type t

val create : unit -> t

val add : t -> float -> unit

val add_list : t -> float list -> unit

val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** 0 on an empty collector. *)

val min_value : t -> float
val max_value : t -> float
(** Raise [Invalid_argument] on an empty collector. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]]; linear interpolation between
    order statistics. Raises [Invalid_argument] if empty. *)

val cdf : t -> points:float list -> (float * float) list
(** [(x, fraction of samples <= x)] for each requested point, fractions in
    [\[0,1\]]. *)

val pdf : t -> bins:int -> lo:float -> hi:float -> (float * float) array
(** Fixed-width bins over [\[lo, hi\]], each entry (bin left edge, share
    of the samples in percent, as the paper's PDF plots are). Samples
    outside the range are clamped into the edge bins. *)

val merge : t -> t -> t
(** New collector holding the samples of both. *)
