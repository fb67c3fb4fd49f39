(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the simulator draws from an explicit [t]
    rather than the global [Random] state, so that experiments are exactly
    reproducible from a seed and independent components can be given
    independent streams via {!split}. The core generator is splitmix64. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of further
    draws from [t]. Used to give each host / protocol instance its own
    stream so that adding draws in one component does not perturb others. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Raises [Invalid_argument] if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val scale_lognormal : t -> Eheap.fcell -> mu:float -> sigma:float -> unit
(** Multiply the cell's value by a lognormal draw: [exp] of a Gaussian
    with parameters [mu], [sigma] (of the underlying normal, i.e. the
    standard parameterization). Allocates nothing. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto distributed, support [\[scale, inf)]. Heavy tail for small
    [shape]. *)

val weibull : t -> scale:float -> shape:float -> float
(** Weibull distributed; used for peer session/downtime durations. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] is [k] elements of [xs] drawn without replacement
    (all of [xs] if it has fewer than [k] elements). *)

module Zipf : sig
  type rng = t

  type t
  (** Zipf sampler over ranks [1..n] with exponent [s], using a Walker
      alias table ([O(1)] per draw, one uniform rng draw per sample). *)

  val create : n:int -> s:float -> t
  val draw : t -> rng -> int
end
