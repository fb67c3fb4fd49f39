(** The live controller — the paper's [splayctl] over real processes.

    {!run} forks real [splayd] daemons, bootstraps them (Hello/Peers with
    a shared wall-clock epoch), names the job's application to each
    ([splayd.job]), then deploys with the simulated controller's own
    conversation and transport ({!Splay_ctl.Deploy}), its
    {!Splay_ctl.Daemon} calls tunnelled as [App] frames, so instance
    placement follows answer order. It serves the daemons'
    [ctl.heartbeat] (a daemon silent for 30 s mid-run fails the run),
    collects streamed log records and shutdown-time trace/metrics chunks,
    then shuts the deployment down and reaps every child.
    SIGINT/SIGTERM handlers and an [at_exit] hook kill surviving daemons
    on abnormal exits; the daemons' own orphan watch covers SIGKILL. *)

type cfg = {
  c_app : string;  (** registry name of the application *)
  c_params : (string * string) list;
  c_daemons : int;  (** splayd processes to fork *)
  c_desc : Splay_ctl.Descriptor.t;
      (** job descriptor: instance count ([nb_splayd]), bootstrap set,
          sandbox limits *)
  c_out_dir : string;  (** run directory: daemon logs, daemons.json, artifacts *)
  c_splayd : string;  (** path to the splayd executable *)
  c_trace : bool;
  c_metrics : bool;
  c_duration : float;  (** > 0: run this long; 0: until the app reports done *)
  c_deadline : float;  (** hard wall-clock budget for the whole run *)
  c_log_level : Log.level;
  c_seed : int;
}

val default_cfg : cfg

type outcome = {
  r_ok : bool;
  r_failures : string list;  (** what went wrong, in occurrence order *)
  r_reports : (string * string) list;
      (** [(node, text)] contract REPORT lines, arrival order — feed to
          {!Contract.summary_of_reports} *)
  r_select : Splay_ctl.Deploy.selection_report;  (** the deploy's last selection round *)
  r_calls : (string * int) list;
      (** RPCs sent to the daemons per procedure, e.g. [("splayd.free", 1)] *)
  r_heartbeats : (int * int) list;  (** [ctl.heartbeat] calls served, per daemon host *)
  r_log_records : int;
  r_trace_file : string option;  (** merged live trace, [splay trace]-ready *)
  r_metrics_file : string option;  (** merged metrics dump, [splay top]-ready *)
  r_out_dir : string;
}

val run : cfg -> outcome
(** Execute one live deployment end to end. Always returns with every
    forked child reaped (kill-escalated if necessary). *)

val status : string -> (int * bool) * (int * int * bool * string) list
(** [status dir] reads [dir/daemons.json]:
    [((controller_pid, alive), [(host, pid, alive, log_path); ...])]. *)

val kill : string -> int
(** [kill dir]: SIGTERM the recorded controller and daemons, escalate to
    SIGKILL after a grace period; returns how many needed the
    escalation. *)
