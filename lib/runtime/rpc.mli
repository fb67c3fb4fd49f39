(** Remote procedure calls — the workhorse of SPLAY applications.

    Calling a remote function is almost as simple as calling a local one.
    A typed procedure {!proc} names its argument list and its result type
    ({!Codec.ty}): {!invoke} calls it and {!handle} serves it. In the
    simulator the request and the reply carry the OCaml values
    themselves; the network model charges the size of their encoding,
    computed without building it, and the callee's handler is matched by
    the procedure's type witness. Only a transport that leaves the process
    builds a {!Codec.value} tree ({!payload_to_value}).

    {!add_handler} is the one untyped entry: a handler over the argument
    values, bound by name. A typed call to it still works, through the
    tree.

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

type 'a args = 'a Env.rpc_args
(** A procedure's argument list. On the wire it is a list of values, and
    a request costs the sum of their sizes. *)

val no_args : unit args
val arg : 'a Codec.ty -> 'a args
val args2 : 'a Codec.ty -> 'b Codec.ty -> ('a * 'b) args
val args3 : 'a Codec.ty -> 'b Codec.ty -> 'c Codec.ty -> ('a * 'b * 'c) args

type ('a, 'b) proc = ('a, 'b) Env.rpc_proc
(** A named procedure from ['a] to ['b]. Define each one once, at top
    level, in the module that serves it, and share it between the callers
    and the handler. *)

val proc : string -> 'a args -> 'b Codec.ty -> ('a, 'b) proc
(** [proc name args result]: each call makes a new type witness. *)

val handle : Env.t -> ('a, 'b) proc -> ('a -> 'b) -> unit
(** Serve the procedure on the instance's endpoint ([rpc.server(n.port)]),
    binding it on first use; the endpoint then also issues calls (replies
    share the socket). Replaces any binding of the same name: the last
    registration wins. *)

val client : Env.t -> unit
(** Enable calls without exposing any procedure (pure client). *)

val add_handler : Env.t -> string -> (Codec.value list -> Codec.value) -> unit
(** Bind a handler over the argument values by name, replacing any
    binding of that name; the endpoint must already be bound. A typed call
    or notify of that name reaches it with its arguments as trees, and the
    caller's result type parses the returned value. *)

val invoke :
  Env.t -> Addr.t -> ?timeout:float -> ?options:options -> ('a, 'b) proc -> 'a -> ('b, error) result
(** The primary entry point — [rpc.a_call(node, proc, args, timeout)]:
    call the remote procedure and report failure as a value. A handler
    that raised answers [Remote] with its message. The policy is
    [?options] (default {!default_options}, i.e. the "standard 2 minutes"
    the paper mentions tuning down for PlanetLab); [?timeout] is the
    common-case shorthand and overrides [options.timeout] when both are
    given.

    When tracing is enabled, each logical call records one [rpc.call] span
    carrying the procedure, source, destination, payload bytes, outcome
    and total attempt count; each retry additionally records a child
    [rpc.retry] span tagged with its attempt number and the backoff delay
    it waited ([delay], seconds). The caller's trace context travels in
    the request envelope, so the callee's [rpc.serve] span — and
    everything the handler does, including nested calls — is a child of
    this call's span across nodes. *)

val p_ping : (unit, unit) proc
(** ["__ping"]: every bound endpoint answers it, unless the application
    binds that name itself. A request costs 38 bytes, its reply 36. *)

val ping : Env.t -> ?timeout:float -> ?options:options -> (unit, 'b) proc -> Addr.t -> bool
(** Liveness probe: whether the no-argument procedure answered, usually
    {!p_ping}. Default policy {!default_options} with a 5 s timeout. *)

val notify : Env.t -> Addr.t list -> ('a, 'b) proc -> 'a -> unit
(** One-way call to each destination in turn: send the request and return
    immediately. All destinations share one request value. The handler
    runs on the callee exactly as for {!invoke}, but no reply is sent and
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
