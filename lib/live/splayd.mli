(** The real [splayd]: one OS process hosting application instances on
    the live backend.

    Bootstrap: connect to the controller, send [Hello] (announcing the
    data port peers dial), receive [Peers] (the shared wall-clock epoch,
    the controller's host id and the peer table). Then run
    {!Splay_ctl.Daemon} on the live loop's net: its [splayd.*] procedures
    and [ctl.heartbeat] travel as [App] frames on the control connection,
    and [splayd.job] names each job's application in the {!Registry}.
    Cross-daemon application traffic leaves through [Net.set_remote]
    routes onto framed TCP data connections and re-enters the destination
    daemon via [Net.deliver_remote].

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
