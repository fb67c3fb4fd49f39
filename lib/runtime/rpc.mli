(** Remote procedure calls — the workhorse of SPLAY applications.

    Calling a remote function is almost as simple as calling a local one.
    A typed procedure {!proc} names its argument list and its result type
    ({!Codec.ty}): {!invoke} calls it and {!handle} serves it. In the
    simulator the request and the reply carry the OCaml values
    themselves; the network model charges the size of their encoding,
    computed without building it, and the callee's handler is matched by
    the procedure's type witness. Only a transport that leaves the process
    builds a {!Codec.value} tree ({!payload_to_value}).

    {!a_call}, {!call}, {!ping}, {!notify}, {!add_handler} and {!server}
    are the same path for procedures named by a string whose arguments
    and result are [Codec.value]s. A typed call to a string-named handler
    (or the reverse) still works, through the tree.

    Communication errors are reported as a result value, mirroring Lua's
    second return value. A handler runs in its own process on the callee,
    so it may itself block on RPCs (recursive routing, as in Chord's
    [find_successor]). *)

type error =
  | Timeout (** no reply within the deadline — the node may have failed *)
  | Remote of string (** the handler raised; message attached *)
  | Network of string (** local send refused (blacklist, budget) *)

val error_to_string : error -> string

exception Rpc_error of error

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

(** {1 Typed procedures} *)

type 'a args
(** A procedure's argument list. On the wire it is a list of values, and
    a request costs the sum of their sizes. *)

val no_args : unit args
val arg : 'a Codec.ty -> 'a args
val args2 : 'a Codec.ty -> 'b Codec.ty -> ('a * 'b) args

type ('a, 'b) proc
(** A named procedure from ['a] to ['b]. Define each one once, at top
    level, and share it between the callers and the handler. *)

val proc : string -> 'a args -> 'b Codec.ty -> ('a, 'b) proc
(** [proc name args result]: each call makes a new type witness. *)

val handle : Env.t -> ('a, 'b) proc -> ('a -> 'b) -> unit
(** Serve the procedure on the instance's endpoint (binding it, as
    {!server} does). Replaces any binding of the same name. *)

val invoke :
  Env.t -> Addr.t -> ?timeout:float -> ?options:options -> ('a, 'b) proc -> 'a -> ('b, error) result
(** Call the procedure: {!a_call} for typed procedures. A handler that
    raised answers [Remote] with its message. *)

(** {1 String-named procedures} *)

val server : Env.t -> (string * (Codec.value list -> Codec.value)) list -> unit
(** Start the RPC server on the instance's endpoint ([rpc.server(n.port)]).
    Also enables this instance to issue calls (replies share the socket).
    Re-registering a name replaces the handler. *)

val client : Env.t -> unit
(** Enable calls without exposing any procedure (pure client). *)

val add_handler : Env.t -> string -> (Codec.value list -> Codec.value) -> unit

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
(** Liveness probe; default policy {!default_options} with a 5 s timeout. *)

val notify : Env.t -> Addr.t list -> string -> Codec.value list -> unit
(** One-way call to each destination in turn: send the request and return
    immediately. All destinations share one request value. The handler
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
    daemons as these values. A request's arguments and a reply's result
    become trees through the caller's or the handler's types; a decoded
    message carries them as [Codec.value]s, and the handler (for a
    request) or the waiting caller (for a reply) parses them with its own
    types on arrival. The caller's trace context travels in the encoding,
    so cross-process requests still stitch into one causal trace. *)

val payload_to_value : Net.payload -> Codec.value option
(** [Some] for RPC requests / replies; [None] for payload kinds this
    module does not own (they have no wire form here). *)

val payload_of_value : Codec.value -> Net.payload
(** Inverse of {!payload_to_value}. Raises {!Codec.Parse_error} on
    malformed input. *)
