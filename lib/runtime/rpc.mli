(** Remote procedure calls — the workhorse of SPLAY applications.

    Calling a remote function is almost as simple as calling a local one:
    arguments and results are {!Codec.value}s, transparently serialized (the
    serialized size is what the network model charges). Communication errors
    are reported as a result value, mirroring Lua's second return value.

    A handler runs in its own process on the callee, so it may itself block
    on RPCs (recursive routing, as in Chord's [find_successor]). *)

type error =
  | Timeout (** no reply within the deadline — the node may have failed *)
  | Remote of string (** the handler raised; message attached *)
  | Network of string (** local send refused (blacklist, budget) *)

val error_to_string : error -> string

exception Rpc_error of error

type handler = Codec.value list -> Codec.value

type options = {
  timeout : float;  (** per-attempt reply deadline, virtual seconds *)
  retries : int;  (** extra attempts after a Timeout or Network failure *)
  backoff : float;
      (** base pause before retry [n]: [backoff * 2^(n-1)] seconds
          (exponential). [0.] (the default) retries immediately, exactly
          as before the field existed. *)
  backoff_jitter : float;
      (** stretch each pause by a uniform factor in [[1, 1 + jitter]],
          drawn from the instance's dedicated RPC RNG stream
          ({!Env.rpc_rng}) — deterministic under a fixed seed, and the
          stream is only split off on first use, so policies without
          jitter leave every other stream untouched. *)
}
(** Call policy, consolidated from the scattered [?timeout] arguments.
    Retries re-send the request with a fresh id; a [Remote] error is the
    handler's answer and is never retried. *)

val default_options : options
(** [{ timeout = 120.0; retries = 0; backoff = 0.; backoff_jitter = 0. }] —
    the "standard 2 minutes" default. *)

val ping_options : options
(** [{ timeout = 5.0; retries = 0; backoff = 0.; backoff_jitter = 0. }] —
    liveness-probe policy. *)

val with_timeout : float -> options
(** [{ default_options with timeout }] — the one-field policy most call
    sites want, without spelling out a record update. *)

val server : Env.t -> (string * handler) list -> unit
(** Start the RPC server on the instance's endpoint ([rpc.server(n.port)]).
    Also enables this instance to issue calls (replies share the socket).
    Re-registering a name replaces the handler. *)

val client : Env.t -> unit
(** Enable calls without exposing any procedure (pure client). *)

val add_handler : Env.t -> string -> handler -> unit

val a_call :
  Env.t ->
  Addr.t ->
  ?timeout:float ->
  ?options:options ->
  string ->
  Codec.value list ->
  (Codec.value, error) result
(** The primary entry point — [rpc.a_call(node, proc, args, timeout)]:
    call the remote procedure and report failure as a value. The policy is
    [?options] (default {!default_options}, i.e. the "standard 2 minutes"
    the paper mentions tuning down for PlanetLab); [?timeout] is the
    common-case shorthand and overrides [options.timeout] when both are
    given, so existing [~timeout] call sites mean what they always did.

    When tracing is enabled, each logical call records one [rpc.call] span
    carrying the procedure, source, destination, payload bytes, outcome
    and total attempt count; each retry additionally records a child
    [rpc.retry] span tagged with its attempt number and the backoff delay
    it waited ([delay], seconds). The caller's trace context travels in
    the request envelope, so the callee's [rpc.serve] span — and
    everything the handler does, including nested calls — is a child of
    this call's span across nodes. *)

val call :
  Env.t -> Addr.t -> ?timeout:float -> ?options:options -> string -> Codec.value list -> Codec.value
(** [rpc.call]: like {!a_call} but raises {!Rpc_error} on failure. *)

val ping : Env.t -> ?timeout:float -> ?options:options -> Addr.t -> bool
(** Liveness probe; default policy {!ping_options} (5 s timeout). *)

val notify : Env.t -> Addr.t -> string -> Codec.value list -> unit
(** One-way call: send the request and return immediately. The handler
    runs on the callee exactly as for {!a_call}, but no reply is sent and
    nothing waits — no timer, no pending-table entry and, decisively for
    very large fan-outs, no fiber parked on the answer. Delivery is
    fire-and-forget with the network's guarantees only: a lost message,
    a partition or a dead callee is silent. Use it where the protocol has
    its own redundancy (gossip, heartbeats). *)

val calls_issued : Env.t -> int
(** Number of outgoing calls this instance has made (monitoring). *)

(** {1 Wire form}

    Serialization of the RPC envelope for transports that leave the
    process — the live backend tunnels application messages between real
    daemons as these values. The caller's trace context travels in the
    encoding, so cross-process requests still stitch into one causal
    trace. *)

val payload_to_value : Net.payload -> Codec.value option
(** [Some] for RPC requests / replies; [None] for payload kinds this
    module does not own (they have no wire form here). *)

val payload_of_value : Codec.value -> Net.payload
(** Inverse of {!payload_to_value}. Raises {!Codec.Parse_error} on
    malformed input. *)
