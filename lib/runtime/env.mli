(** Execution environment of one application instance.

    This is what a SPLAY application sees at startup: its own endpoint
    ([job.me]), its rank in the deployment sequence ([job.position]), the
    bootstrap peers chosen by the controller ([job.nodes]), plus the handles
    to the sandboxed libraries. It also owns every process and port the
    instance creates, so the daemon can stop the whole instance at once
    (churn, FREE command, sandbox kill). *)

type proc_slot
(** One tracked process: an int-indexed slot in the instance's dense
    process table. The slot records its own index, so a process leaving
    (for any reason — the engine's exit hook fires [Env]'s untrack) is an
    O(1) swap-remove with no dead-handle retention: a million instances
    that each spawn a handful of short-lived fibers hold on to none of
    them. (The previous representation — a cons list pruned every 32nd
    spawn — never pruned instances with fewer than 32 spawns, which is
    every instance in a million-node run.) *)

type t = {
  net : Net.t;
  me : Addr.t;
  mutable position : int; (* 1-based rank in the deployment sequence *)
  mutable nodes : Addr.t list; (* rendez-vous peers from the controller *)
  sandbox : Sandbox.t;
  log_level : Log.level; (* the level {!log} starts at *)
  mutable log_t : Log.t option; (* lazy; use {!log} *)
  env_rng : Splay_sim.Rng.t;
  mutable procs : proc_slot array; (* dense prefix of length [procs_len] *)
  mutable procs_len : int;
  mutable proc_seq : int; (* spawn sequence; orders kills at [stop] *)
  mutable ports : Addr.t list;
  mutable loss_rate : float;
      (** proportion of this instance's outgoing packets dropped by the
          network library — the paper's lossy-link study knob, set at
          deployment time *)
  mutable stopped : bool;
  mutable stop_hooks : (unit -> unit) list;
  (* RPC plumbing (owned here so client and server share the endpoint).
     The pending table materializes on first use (access through
     {!rpc_pending}): a pure server never allocates it — at million-node
     scale an empty-but-allocated Hashtbl would cost ~22 words per node. *)
  mutable rpc_pending_tbl : (int, rpc_call) Hashtbl.t option;
  mutable rpc_next_rid : int;
  mutable rpc_handlers : (string * (Codec.value list -> Codec.value)) list;
      (** procedure name -> handler, one binding per name (an instance
          registers a handful); {!Rpc.add_handler} replaces on
          re-registration (last registration wins) *)
  mutable rpc_bound : bool;
  mutable rpc_rng : Splay_sim.Rng.t option; (* lazy; use {!rpc_rng} *)
}

(** One outstanding RPC attempt. The pending-table entry is the record
    itself, and the attempt's timeout timer and cleanup are closures over
    it alone, so a parked caller holds no per-call copy of the table, the
    engine or the rid. *)
and rpc_call = {
  call_env : t;
  call_rid : int;
  call_resolve : ((Codec.value, string) result, exn) result -> unit;
      (** the suspended caller's one-shot resolve *)
  mutable call_timer : Splay_sim.Engine.event_id;
}

val create :
  ?position:int ->
  ?nodes:Addr.t list ->
  ?limits:Sandbox.limits ->
  ?log_level:Log.level ->
  Net.t ->
  me:Addr.t ->
  t
(** A sandbox memory violation automatically stops the instance, as the
    paper specifies. *)

val engine : t -> Splay_sim.Engine.t

val log : t -> Log.t
(** The instance's logger, named after its address, created on first use
    at [log_level]. *)

val rpc_rng : t -> Splay_sim.Rng.t
(** The instance's RPC jitter stream, split from [env_rng] on first use —
    lazily, so instances that never draw jitter (the default policy)
    consume exactly the streams they did before this stream existed. *)

val rpc_pending : t -> (int, rpc_call) Hashtbl.t
(** The outstanding-call table, materialized on first use. *)

val rpc_pending_opt : t -> (int, rpc_call) Hashtbl.t option
(** The table if any call ever ran — reply dispatch uses this so a stray
    reply to a node that never called costs no allocation. *)

val live_procs : t -> int
(** Number of currently-tracked (live) processes of this instance. *)

val thread : t -> ?name:string -> (unit -> unit) -> Splay_sim.Engine.proc
(** [events.thread]: spawn a process owned by this instance. *)

val periodic : t -> float -> (unit -> unit) -> Splay_sim.Engine.proc
(** [events.periodic f interval]: run [f] every [interval] simulated
    seconds (first run after one interval). The body may block. *)

val sleep : float -> unit
(** Re-export of {!Splay_sim.Engine.sleep} under the application-facing
    namespace. *)

val now : t -> float

val on_stop : t -> (unit -> unit) -> unit

val stop : t -> unit
(** Kill all processes, unbind all ports, run stop hooks. Idempotent.
    Safe to call from within one of the instance's own processes. *)

val is_stopped : t -> bool

val register_port : t -> Addr.t -> unit
(** Record a bound port for cleanup at {!stop}, which unbinds it and
    returns its socket to the sandbox (called by the socket layer). *)
