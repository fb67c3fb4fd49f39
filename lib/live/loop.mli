(** Real-time driver for the simulation engine — the live backend's I/O
    seam.

    The unmodified effects-based {!Splay_sim.Engine} is driven against the
    wall clock: each iteration advances virtual time to wall elapsed time
    since a shared [epoch] (firing due timers, RPC timeouts and periodic
    processes), then parks in [select] on the watched sockets until the
    next virtual event falls due or I/O arrives. Application code calling
    [sleep]/[await]/RPCs therefore gets real-time semantics with zero
    changes. Local network traffic flows through a zero-latency in-process
    testbed; remote traffic leaves through [Net.set_remote] routes
    installed by {!Splayd}. *)

module Engine = Splay_sim.Engine

type t

type watch
(** Registration of one fd in the loop's [select] set. *)

val create : ?seed:int -> ?hosts:int -> ?epoch:float -> unit -> t
(** Fresh loop: engine, zero-latency synthetic testbed ([hosts] slots) and
    net. [epoch] is the wall-clock origin of virtual time (defaults to
    now); a controller shares one epoch across all daemons so their
    virtual clocks — and the timestamps in their merged traces — align. *)

val engine : t -> Engine.t
val net : t -> Net.t

val elapsed : t -> float
(** Wall seconds since [epoch] — the loop's target virtual time. *)

val watch : t -> Unix.file_descr -> on_read:(unit -> unit) -> on_write:(unit -> unit) -> watch
(** Add [fd] to the select set. [on_read] fires on readability;
    [on_write] only while enabled via {!want_write}. *)

val unwatch : t -> watch -> unit
val want_write : watch -> bool -> unit

val run :
  ?deadline:float ->
  ?max_idle:float ->
  t ->
  until:(unit -> bool) ->
  [ `Done | `Deadline ]
(** Drive engine and sockets until [until ()] holds ([`Done]) or the
    absolute wall-clock [deadline] passes ([`Deadline]). [max_idle] (default 50 ms) bounds each select wait so
    condition changes are noticed promptly. *)
