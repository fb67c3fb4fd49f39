(** Resource sandbox for one application instance.

    SPLAY applications execute in a sandbox whose limits are set by the
    local daemon administrator and can only be made stricter by the
    controller. The enforcement model follows the paper: exceeding the
    memory limit kills the application; exceeding disk or network limits
    makes the offending I/O operation fail; blacklisted destinations are
    unreachable. *)

type limits = {
  max_memory : int; (* bytes of application state *)
  max_sockets : int;
  max_fs_bytes : int;
  max_open_files : int;
  max_send_bytes : int; (* total network budget *)
}

val unlimited : limits

val restrict : limits -> limits -> limits
(** [restrict admin ctl] — the controller may strengthen but never weaken
    the administrator's limits (field-wise minimum). *)

exception Violation of string
(** Raised by the failing I/O operation (disk or network overuse, blacklist
    hit, socket exhaustion). Every enforcement — fatal or not — also
    records a [sandbox.violation] point event (attrs [reason], [fatal]) in
    the observability trace and bumps the [sandbox.violations] counter. *)

type t

val create : ?limits:limits -> unit -> t
(** [limits] defaults to the daemon defaults used across the evaluation:
    16 MB memory, 64 sockets, 8 MB filesystem, 64 open files, unlimited
    traffic. *)

val limits : t -> limits

val squeeze : t -> limits -> unit
(** Tighten the live sandbox to [restrict current given] — the
    sandbox-limit nemesis of [splay check] and the runtime form of a
    controller pushing stricter limits. Never weakens. Usage already above
    a tightened cap is not retroactively punished: the next operation that
    needs headroom fails (or kills, for memory). *)

val set_on_kill : t -> (string -> unit) -> unit
(** Invoked when a violation is fatal (memory). The environment installs a
    callback that kills every process of the instance. *)

(** Accounting — called by the wrapped libraries. *)

val alloc : t -> int -> unit
(** Account application memory. On exceeding the limit, triggers the kill
    callback and raises {!Violation}. *)

val free : t -> int -> unit
val memory_used : t -> int

val check_rss : t -> int -> unit
(** [check_rss t rss] enforces the memory limit against a measured real
    process resident-set size (bytes) — the live backend's periodic
    self-poll. Over the limit it triggers the kill callback and raises
    {!Violation} with the same message {!alloc} would produce, so the
    observable failure mode matches simulation. *)

val socket_opened : t -> unit
(** Raises {!Violation} when the socket cap is reached. *)

val socket_closed : t -> unit
val sockets_open : t -> int

val fs_grow : t -> int -> unit
(** Raises {!Violation} when the quota would be exceeded (the write fails;
    the application keeps running). *)

val fs_shrink : t -> int -> unit
val fs_used : t -> int

val file_opened : t -> unit
val file_closed : t -> unit

val network_send : t -> int -> unit
(** Account [n] bytes of traffic; raises {!Violation} over budget. *)

val bytes_sent : t -> int

val blacklist : t -> Addr.host_id -> unit
(** Forbid connections to a host (controller-pushed). *)

val blacklisted : t -> Addr.host_id -> bool
