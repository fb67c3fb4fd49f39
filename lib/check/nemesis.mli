(** Fault schedules for simulation testing.

    A nemesis is a small program of faults injected into a running
    deployment: crash or stop/restart instances, partition the host set,
    drop or delay every message for a while, take hosts down, squeeze
    sandbox limits, or replay a whole churn script. Schedules are values
    — generated from a seed, serialized into a one-line replay command,
    shrunk towards a minimal reproducer — and applying one is
    deterministic given the RNG handed to {!run}.

    The concrete syntax (one op per clause, clauses joined by [";"]):

    {v
    crash 2 @ 30            kill 2 random live instances at t=30
    stop 1 @ 30             STOP 1 instance (restartable)
    restart 1 @ 90          re-START the oldest stopped instance
    join 2 @ 60             deploy 2 extra instances
    partition 2 @ 40 to 90  split hosts into 2 groups for 50 s
    drop 0.3 @ 40 to 90     drop 30% of every message in the window
    slow 0.5 @ 40 to 90     add 0.5 s to every delivery in the window
    down 1 @ 40 to 90       take 1 instance-hosting host down for 50 s
    squeeze 2 x 4096 @ 50   cap 2 instances to 4096 more send bytes
    churn{at 10s leave 25%} @ 30   replay a churn script ({!Splay_churn.Script})
    v}

    Times are seconds relative to the moment {!run} is called (after the
    suite's settle phase, not absolute virtual time). *)

type op =
  | Crash of { at : float; count : int }
      (** kill [count] random live instances — no protocol, as under real
          churn *)
  | Stop of { at : float; count : int }
      (** STOP [count] random live instances (kept registered) *)
  | Restart of { at : float; count : int }
      (** re-START up to [count] previously stopped instances, oldest
          first *)
  | Join of { at : float; count : int }  (** deploy [count] extra instances *)
  | Partition of { at : float; until : float; groups : int }
      (** split hosts into [groups] classes ([host mod groups]); heal at
          [until] *)
  | Drop of { at : float; until : float; loss : float }
      (** global message loss probability during the window *)
  | Slow of { at : float; until : float; delay : float }
      (** extra seconds added to every delivery during the window *)
  | Down of { at : float; until : float; count : int }
      (** take [count] random hosts that run live instances down — every
          message to or from them is dropped, and the controller stops
          counting their daemons alive — and bring them back up at
          [until] *)
  | Squeeze of { at : float; count : int; budget : int }
      (** tighten the network-send budget of [count] random live instances
          to [budget] further bytes *)
  | Churn of { at : float; script : Splay_churn.Script.t }
      (** spawn a churn-script replay (script time 0 = [at]) *)

type t = op list

val duration : t -> float
(** Time of the last effect, heals and churn tails included — how long
    {!run} keeps acting after it starts. *)

val to_string : t -> string
(** One-line concrete syntax, suitable for a shell-quoted [--nemesis]
    argument. [parse (to_string t) = t] up to float formatting. *)

exception Parse_error of string

val parse : string -> t
(** Inverse of {!to_string}; raises {!Parse_error} on malformed input. *)

val shrink_candidates : t -> t list
(** Strictly smaller variants to try when shrinking a failing run:
    schedules with one op removed (first — removing an op is the biggest
    simplification), then schedules with one op weakened (halved counts,
    rates, delays and windows). The empty schedule is a valid candidate:
    if the failure survives it, the bug does not need the nemesis at
    all. *)

val run : rng:Splay_sim.Rng.t -> dep:Splay_ctl.Controller.deployment -> t -> unit
(** Apply the schedule to a live deployment, blocking until the last op
    (heals included) has fired. Must be called from inside a simulation
    process; op times are relative to the call. Victim selection draws
    from [rng] only — hand it a dedicated stream and the same schedule
    hits the same victims on every replay. *)
