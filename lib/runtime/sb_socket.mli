(** Restricted socket library ([sb_socket]).

    All network I/O of an application flows through here, where the sandbox
    enforces the administrator's and controller's restrictions: total
    bandwidth budget, socket count, and destination blacklist. The
    underlying transport is {!Net}. *)

exception Network_error of string
(** A failed operation (blacklisted peer, budget exhausted, socket cap). *)

val udp : Env.t -> port:int -> (src:Addr.t -> Net.payload -> unit) -> Addr.t
(** Bind a datagram socket on the instance's host. Counts against the
    sandbox socket limit; automatically closed when the instance stops.
    Returns the bound address. *)

val send : Env.t -> dst:Addr.t -> ?size:int -> Net.payload -> unit
(** Send a datagram from this instance. Raises {!Network_error} if the
    destination host is blacklisted or the traffic budget is exhausted.
    Never blocks; delivery (or loss) is the network's business. *)

