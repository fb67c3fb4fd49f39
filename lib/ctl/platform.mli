(** A simulated SPLAY deployment, built, run and torn down in one place:
    engine + testbed + network + controller + one daemon per host, and
    the bracket that runs an experiment on it ([splayctl]'s deploy, run,
    free). *)

type spec =
  | Planetlab of int  (** n live wide-area hosts *)
  | Modelnet of { hosts : int; bandwidth : float option }
      (** emulated cluster on a 500-router transit-stub graph *)
  | Cluster of int  (** LAN machines (the paper's 11-node cluster) *)
  | Mixed of { planetlab : int; modelnet : int }

type t

val create :
  ?seed:int ->
  ?perturb:float ->
  ?daemon_config:Daemon.config ->
  ?unseen_timeout:float ->
  spec ->
  t
(** A fresh engine seeded with [seed] (default 42), the testbed [spec]
    draws from it plus one controller host, the network, the controller
    and a daemon on every testbed host. [perturb], when given, installs
    {!Splay_sim.Engine.set_perturbation} with same-instant shuffling and up
    to [perturb] seconds of extra delay per event, before the testbed is
    drawn, so a seed replays the same perturbed schedule. *)

val engine : t -> Splay_sim.Engine.t
val net : t -> Net.t
val testbed : t -> Testbed.t
val controller : t -> Controller.t
val daemons : t -> Daemon.t list

val now : t -> float
(** The engine's virtual clock. *)

val run : ?until:float -> ?name:string -> t -> (t -> 'a) -> 'a
(** [run p main] spawns [main p] on the controller's env as a process
    named [name] (unnamed by default), drives the engine to completion
    (or [until]) and returns [main]'s result. However [main] ends, every
    daemon is shut down and the controller env stopped, so the event
    queue drains. Fails with [Failure] when a process crashed (main
    included) or when [main] had not returned by [until]. *)
