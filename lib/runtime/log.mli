(** SPLAY's [log] library: leveled logging, locally buffered or forwarded to
    the controller's log collector over the (accounted) network.

    Each record is a per-node [(virtual time, level, message)] triple. The
    level is set at init ({!create}) and can be tightened later; a call
    below the threshold is a cheap early-out — the message is {e not}
    formatted (though, as with any [Printf], argument expressions are still
    evaluated by the caller). *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> level option
(** Inverse of {!level_to_string} (also accepts ["warning"]). *)

type sink =
  | Discard
  | Memory of int (* keep at most n entries locally *)
  | Forward of (time:float -> level:level -> node:string -> string -> unit)
      (** Forward each entry to a collector (the controller installs one
          per job and aggregates; see [Splay_ctl.Controller.job_log]).
          [node] is the emitting logger's name — the instance address —
          so the collector can tell its sources apart. The callback
          performs its own transport accounting. *)

type t

val create : ?level:level -> ?sink:sink -> name:string -> Splay_sim.Engine.t -> t
(** Default level [Info], default sink [Memory 10_000]. *)

val set_level : t -> level -> unit
val set_sink : t -> sink -> unit
val enabled : t -> level -> bool

val debug : t -> ('a, unit, string, unit) format4 -> 'a
val info : t -> ('a, unit, string, unit) format4 -> 'a
val warn : t -> ('a, unit, string, unit) format4 -> 'a
val error : t -> ('a, unit, string, unit) format4 -> 'a

val entries : t -> (float * level * string) list
(** Locally retained entries, oldest first (empty unless sink is
    [Memory _]). *)

val count : t -> int
(** Number of entries emitted at an enabled level over the lifetime. *)
