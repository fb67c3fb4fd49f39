(** One bench row, one timer, one writer and one floors checker.

    Every experiment that records a [BENCH_*.json] baseline measures one
    {!t} per workload with {!time} and writes them with {!write},
    which then checks the file against the committed
    [BENCH_*.floors.json] in the working directory. *)

type t = {
  name : string;  (** unique within a file *)
  ops : int;
  seconds : float;  (** median wall time over [reps] *)
  seconds_min : float;
  seconds_mad : float;  (** median absolute deviation from [seconds] *)
  reps : int;
  fields : (string * float) list;  (** what this workload measured, in output order *)
}

val gated_reps : int
(** Repetitions of a row whose wall time a gated ratio reads (a speedup,
    an [_obs] or [_j2] twin against its plain row). Every other row runs
    once. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] once and returns its result and its CLOCK_MONOTONIC
    wall time in seconds. *)

val time : reps:int -> string -> (unit -> (int * (string * float) list) * float) -> t
(** [time ~reps name f] runs [f] [reps] times and prints the row it
    returns. [f] returns the workload's ops and fields and the seconds it
    measured with {!timed} around the phase it wants timed; the row keeps
    the last run's ops and fields and the median, min and MAD of the
    seconds. *)

val ops_per_sec : t -> float

val write : dir:string -> string -> t list -> unit
(** [write ~dir file rows] writes [dir/file] in the [splay-bench/2] schema,
    one row per line, then checks it against [file]'s [.floors.json]
    sibling in the working directory when that file exists, printing
    every bound. A violation is counted in {!violations}. *)

val violations : int ref

(** {1 Floors checker}

    A floors file lists one bound object per line, keyed by [name]:
    - ["floor_F": V] / ["ceiling_F": V]: the row's field [F] is at least /
      at most [V];
    - ["floor_ratio_F": R] / ["ceiling_ratio_F": R] with
      ["baseline": "other"]: the row's [F] over the baseline row's [F] is
      at least / at most [R];
    - ["floor_speedup_x_per_worker": P]: the row's [speedup_x] is at least
      [P * workers]; not gated when [workers < 2].

    A missing row or field fails its bound. *)

val check : bench:string -> floors:string -> (bool * string) list
(** Verdicts (passed, message) for every bound of the [floors] text
    against the rows of the [bench] text, in floors order. *)
