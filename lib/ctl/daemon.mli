(** The [splayd] daemon: one per participating host.

    A daemon accepts control commands from the controller (over RPC, so
    command latencies follow the host and network models), instantiates
    application instances in sandboxes, enforces the administrator's
    resource restrictions (the controller may only strengthen them), tracks
    per-instance memory, and feeds the host contention model — when the
    instances outgrow the host's RAM the host starts "swapping" and every
    operation on it slows down (Fig. 7b / Fig. 8 behaviour).

    The live [splayd] runs this same daemon on its loop's net, where the
    testbed keeps no host records and the contention model is off. *)

type config = {
  base_footprint : int;
      (** resident bytes one idle instance costs (SPLAY: ~600 kB with all
          libraries loaded, growing towards ~1.5 MB with protocol state) *)
  admin_limits : Splay_runtime.Sandbox.limits; (** local administrator's caps *)
  heartbeat_interval : float;
  cpu_per_instance : float;
      (** marginal scheduler load of one mostly-idle instance (dimensionless
          runnable-process fraction) *)
  contention_extra : int -> float;
      (** additional service-time multiplier as a function of the instance
          count — heavyweight runtimes degrade superlinearly once past
          their comfortable density (GC pressure); 0 for SPLAY *)
}

val splay_config : config
(** SPLAY's own daemon, the default: 1.45 MB per resident instance, a
    16 MB administrator memory cap, a heartbeat a minute. *)

type t

type job_spec = {
  js_name : string;
  js_main : Env.t -> unit;
  js_limits : Splay_runtime.Sandbox.limits; (** controller restrictions *)
  js_log_sink : Splay_runtime.Log.sink;
  js_log_level : Splay_runtime.Log.level;
      (** per-node severity threshold, applied at instance creation —
          records below it are dropped at the node, never forwarded *)
  js_loss : float; (** outgoing packet loss imposed on the instance *)
}

val start :
  Net.t ->
  host:Addr.host_id ->
  controller:Addr.t ->
  ?config:config ->
  lookup_job:(int -> job_spec option) ->
  unit ->
  t
(** Boot a daemon on [host]: binds its control endpoint (port 1), begins
    heartbeating to the controller. [lookup_job] resolves a job id received
    in a REGISTER command to its specification (the controller's database
    access). *)

val addr : t -> Addr.t

val env : t -> Env.t
(** The control endpoint: a backend serves its own procedures here. *)

val host : t -> Addr.host_id

val instances : t -> Instances.inst list
(** The daemon's instance table ({!Instances}), newest first. *)

val instance_count : t -> int

val memory_used : t -> int
(** Total resident memory of all instances (base footprint + sandboxed
    application state), in bytes. *)

val load : t -> float
(** Scheduler load estimate (average runnable processes). *)

val stop_instance : t -> Addr.t -> unit
(** Kill one instance directly (used by the churn manager for node
    departures; the FREE command does the same over RPC). *)

val shutdown : t -> unit
(** Kill the daemon and every instance it hosts (host crash). *)

(** {1 Control protocol}

    The procedures the daemon serves, which the controller calls. *)

val proc_probe : (string, unit) Splay_runtime.Rpc.proc
(** The argument is padding that sizes the measured round trip. *)

val proc_register : (int, int) Splay_runtime.Rpc.proc
(** Job id to the new instance's port. *)

val proc_list : (int * int * Addr.t list, unit) Splay_runtime.Rpc.proc
(** Port, position in the deployment and bootstrap nodes. *)

val proc_start : (int * int, unit) Splay_runtime.Rpc.proc
(** Job id and port. *)

val proc_free : (int, unit) Splay_runtime.Rpc.proc
val proc_stop : (int, unit) Splay_runtime.Rpc.proc

val proc_blacklist : (Addr.host_id, unit) Splay_runtime.Rpc.proc
(** Bar the host from every instance, present and future. *)

val proc_heartbeat : (Addr.host_id, unit) Splay_runtime.Rpc.proc
(** The daemon's keep-alive, carrying its host id; the controller serves
    it. *)

type job_desc = {
  jd_app : string;  (** registry name of the application *)
  jd_params : (string * string) list;
  jd_limits : Splay_runtime.Sandbox.limits;  (** controller restrictions *)
  jd_log_level : Splay_runtime.Log.level;
}
(** A job as a live controller names it: the daemon builds the
    {!job_spec} from its own application registry. *)

val proc_job : (int * job_desc, unit) Splay_runtime.Rpc.proc
(** Job id and description, sent before the job's first REGISTER; only a
    live daemon serves it. An unknown application is an error naming it. *)
