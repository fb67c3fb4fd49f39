(** Execution environment of one application instance.

    This is what a SPLAY application sees at startup: its own endpoint
    ([job.me]), its rank in the deployment sequence ([job.position]), the
    bootstrap peers chosen by the controller ([job.nodes]), plus the handles
    to the sandboxed libraries. It also owns every process and port the
    instance creates, so the daemon can stop the whole instance at once
    (churn, FREE command, sandbox kill). *)

(** {1 RPC descriptors}

    {!Rpc}'s typed procedures, declared here because an instance holds
    its handlers. Build them with [Rpc.proc]. *)

type 'a rpc_args = {
  size : 'a -> int;  (** the byte count of the argument list: the sum of its values' *)
  to_values : 'a -> Codec.value list;
  of_values : Codec.value list -> 'a;
}
(** A procedure's argument list. *)

type ('a, 'b) rpc_proc = {
  name : string;
  args : 'a rpc_args;
  result : 'b Codec.ty;
  id : ('a -> 'b) Type.Id.t;
      (** two procedures carry values of the same types when their ids
          are provably equal *)
}

(** One registered procedure. [Named] is the untyped instance,
    [Codec.value list -> Codec.value] ([Rpc.add_handler]), kept in the
    same three words as a typed entry: it needs no descriptor of its own. *)
type rpc_handler =
  | Handler : ('a, 'b) rpc_proc * ('a -> 'b) -> rpc_handler
  | Named : string * (Codec.value list -> Codec.value) -> rpc_handler

type t = {
  net : Net.t;
  me : Addr.t;
  mutable position : int; (* 1-based rank in the deployment sequence *)
  mutable nodes : Addr.t list; (* rendez-vous peers from the controller *)
  sandbox : Sandbox.t;
  log_level : Log.level; (* the level {!log} starts at *)
  mutable log_t : Log.t option; (* lazy; use {!log} *)
  env_rng : Splay_sim.Rng.t;
  procs : Splay_sim.Engine.group;
      (** every live process of the instance, for {!stop}: membership
          lives in the process records, so spawning and exiting allocate
          nothing here, and a process leaves the group when it exits *)
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
  mutable rpc_handlers : rpc_handler list;
      (** one binding per procedure name (an instance registers a
          handful); a registration replaces the binding of its name
          (last registration wins) *)
  mutable rpc_bound : bool;
  mutable rpc_rng : Splay_sim.Rng.t option; (* lazy; use {!rpc_rng} *)
}

(** One outstanding RPC attempt: its caller's waker, keyed by rid in the
    pending table. The reply payload itself settles it, and the caller
    takes its result out; the attempt's timeout or a kill also settles
    it. *)
and rpc_call = Net.payload Splay_sim.Engine.waker

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
