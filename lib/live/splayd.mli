(** The real [splayd]: one OS process hosting application instances on
    the live backend.

    Bootstrap: connect to the controller, send [Hello] (announcing the
    data port peers dial), receive [Peers] (the shared wall-clock epoch
    and peer table), then serve [Register]/[Start]/[Free]/[Shutdown] verbs
    (acked by request id; instance ports are the daemon's to pick) over
    the framed control connection while streaming heartbeats and log
    records back. Cross-daemon application traffic leaves through
    [Net.set_remote] routes onto framed TCP data connections and
    re-enters the destination daemon via [Net.deliver_remote].

    Hygiene: the daemon self-terminates when orphaned (parent-PID poll)
    or when the control connection drops; a graceful [Shutdown] flushes
    its trace/metrics JSONL dump to the controller first. *)

type config = {
  connect : string;  (** controller address, ["host:port"] *)
  host : int;  (** this daemon's logical host id *)
  parent : int;  (** controller PID for the orphan watch; [0] disables *)
  seed : int;
  trace : bool;
  metrics : bool;
}

val run : config -> int
(** Run the daemon to completion; returns the process exit code (0 after
    a graceful shutdown). Exits the process directly on orphaning or
    controller loss. *)
