(** The [splayctl] controller.

    Keeps the database of daemons and jobs, probes and selects hosts,
    deploys jobs with the REGISTER / LIST / START / FREE protocol (always
    registering a superset of candidates and keeping the most responsive
    ones, the tradeoff of Fig. 12), collects application logs, distributes
    blacklists, and tracks daemon sessions ([unseen]). The churn manager
    drives {!add_node} / {!crash_node} to reshape a running deployment.

    The conversation and its transport are {!Deploy}'s, shared with the
    live controller: the daemons' RPC procedures, called from the
    controller's env, here with 2 ms of dispatch per command.

    Control traffic flows over the same simulated network as applications,
    so deployment timings inherit the testbed's latency, bandwidth and host
    responsiveness models.

    Blocking operations ({!probe}, {!deploy}, {!add_node}) must be called
    from inside a simulation process. *)

type t

val create : ?unseen_timeout:float -> Net.t -> host:Addr.host_id -> t
(** [host] is the trusted machine the controller processes run on. *)

val addr : t -> Addr.t
val env : t -> Env.t
val net : t -> Net.t

(** {1 Daemon database} *)

val boot_daemons : ?config:Daemon.config -> t -> Addr.host_id list -> Daemon.t list
(** Start a daemon on each host and record it in the database. *)

val alive_daemons : t -> Daemon.t list
(** Daemons whose host is up and whose session is fresh (heartbeat within
    the unseen timeout). *)

(** {1 Selection} *)

val probe : t -> ?payload:int -> Daemon.t -> float option
(** Round-trip time of a [payload]-byte probe (default 20 kB, as Fig. 3),
    [None] on timeout (10 s). Blocking. *)

(** {1 Jobs} *)

type deployment

val deploy :
  t ->
  ?superset:float ->
  ?register_timeout:float ->
  ?criteria:Deploy.criterion list ->
  ?log_cap:int ->
  ?log_level:Log.level ->
  name:string ->
  main:(Env.t -> unit) ->
  Descriptor.t ->
  deployment
(** Deploy a job: select [superset] (default 1.25, the paper's default ×
    the requested size) candidate slots, REGISTER them all, keep the first
    [nb_splayd] to acknowledge, FREE the rest, push LIST (positions and
    bootstrap nodes per the descriptor) and START. Blocking; returns once
    every kept instance has started.

    [log_level] (default [Info]) is the per-node severity threshold pushed
    to every instance of the job; records below it are filtered at the
    node. [log_cap] (default 100_000) bounds the records the controller
    retains for the job — beyond it, {!job_logs} keeps counting lines
    and bytes but drops the text. *)

val deployment_ctl : deployment -> t

val members : deployment -> (Daemon.t * Addr.t * int) list
(** All instances ever started (daemon, address, position), including ones
    that have since died. *)

val live_members : deployment -> (Daemon.t * Addr.t * int) list
val live_envs : deployment -> Env.t list
val live_count : deployment -> int

(** {1 Job status — the splayctl monitoring view}

    The paper's splayctl continuously reports, per job, which splayds are
    up, their load and their resource consumption against the sandbox
    caps. {!job_status} computes that row on demand; {!monitor} samples
    it (plus {!Splay_runtime.Telemetry} host histograms over the job's
    live instances) into the metrics plane every rollup window, emitting
    one [ctl.job_status] note row per sample. *)

type job_status = {
  st_name : string;
  st_members : int;  (** instances ever started *)
  st_live : int;  (** started, not stopped, host up *)
  st_hosts_up : int;  (** distinct member hosts currently up *)
  st_hosts_down : int;
  st_fibers : int;  (** live processes across live instances *)
  st_inflight : int;  (** outstanding RPC calls across live instances *)
  st_mem_bytes : int;  (** sandbox-accounted memory across live instances *)
  st_worst : (Addr.t * int) list;  (** hottest instances by memory, descending *)
}

val job_status : ?top:int -> deployment -> job_status
(** Current status; [top] bounds {!job_status.st_worst} (default 3). *)

val monitor : ?interval:float -> ?top:int -> deployment -> unit
(** Start the periodic status sampler on the controller's env (default
    interval: the rollup window width). It stops when the controller's
    env stops. Sampling is observable only while an {!Splay_obs.Obs}
    plane is enabled. *)

val add_node : deployment -> Addr.t option
(** Churn join: register + start one more instance on a random alive
    daemon, bootstrapped per the descriptor against current live members.
    Blocking. [None] if no daemon accepted. *)

val crash_node : deployment -> Addr.t -> unit
(** Churn leave / failure: kill the instance immediately, no protocol
    (the node simply disappears, as under real churn). *)

val stop_node : deployment -> Addr.t -> unit
(** The STOP command of the job state machine: terminate the application
    but keep the instance registered ("selected"); {!restart_node} brings
    it back with a fresh sandbox. Blocking. *)

val restart_node : deployment -> Addr.t -> unit
(** Re-START a stopped instance: new LIST (bootstrapped against current
    live members) + START. Blocking. *)

val undeploy : deployment -> unit
(** FREE every live instance. Blocking. *)

val job_logs : deployment -> Deploy.logs
(** The job's log collector: every instance forwards its enabled records
    here, in delivery order on the virtual clock (deterministic). *)

(** {1 Blacklist} *)

val push_blacklist : t -> Addr.host_id -> unit
(** Forbid a host to all daemons and their current and future instances.
    Blocking. *)
