(** Time-binned sample series for "metric over time" figures.

    Figures 10, 11 and 14 of the paper plot per-minute (or per-hour)
    distributions of a metric as the experiment progresses; a [t] buckets
    timestamped samples into fixed-width bins and exposes per-bin
    statistics. *)

type t

val create : bin_width:float -> t
(** Bins are [\[k*w, (k+1)*w)]. *)

val add : t -> time:float -> float -> unit

val bins : t -> (float * Dist.t) list
(** Non-empty bins in increasing time order; the float is the bin's left
    edge. *)

val bin_at : t -> float -> Dist.t option
(** The bin containing the given time, if any sample landed there. *)

(** Plain per-bin counters (e.g. join/leave counts per minute in the churn
    figures). *)
module Counter : sig
  type t

  val create : bin_width:float -> t
  val incr : t -> time:float -> unit
  val get : t -> time:float -> int
  val series : t -> (float * int) list
end
