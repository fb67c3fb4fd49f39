(** Offline analysis of {!Obs} JSONL traces.

    Loads a trace dump (the [B]/[E]/[P] records of {!Obs.trace_jsonl},
    possibly interleaved with [L] log records and metric lines, which are
    counted and skipped respectively), reconstructs the causal span DAG
    from the [sid]/[pid] links, and computes the queries a deployer asks of
    a distributed run: where did the time go and per-hop latency
    ({!print_critical_path}), and per-name / per-RPC summaries
    ({!print_summary}).

    The loader is deliberately tolerant: unknown record kinds and metric
    lines are skipped, an [E] without a matching [B] is ignored, and spans
    never closed (crashed nodes) are clamped to the last timestamp seen. *)

type span = {
  sid : int;
  tid : int;  (** trace (causal tree) the span belongs to *)
  pid : int;  (** parent [sid]; 0 for roots *)
  name : string;
  start : float;
  mutable stop : float;
  mutable closed : bool;  (** false if no [E] record was found *)
  mutable attrs : (string * string) list;
      (** begin-record attributes, then finish-record attributes *)
  mutable children : span list;  (** in begin order *)
}

type pevent = {
  ev_time : float;
  ev_tid : int;
  ev_pid : int;  (** enclosing span's [sid]; 0 if none *)
  ev_name : string;
  ev_attrs : (string * string) list;
}

type t = {
  spans : span list;  (** in begin order *)
  events : pevent list;  (** in emission order *)
  by_sid : (int, span) Hashtbl.t;
  roots : span list;  (** [pid = 0], or parent absent from the dump *)
  logs : int;  (** [ev:"L"] records seen (collected node logs) *)
}

(** {1 Line parser}

    The writers emit flat one-line JSON objects whose values are strings
    or numbers — no nesting, no arrays. The hand-rolled parser for exactly
    that shape is shared with {!Metrics_analysis}. *)

exception Bad_line of string

val parse_line : string -> (string * string) list
(** Key/value pairs of one record, in field order; string values are
    unescaped, numeric values kept as raw text. Raises {!Bad_line} on
    malformed input. *)

val field : (string * string) list -> string -> string option
val int_field : (string * string) list -> string -> int option
val float_field : (string * string) list -> string -> float option

val load : string -> t
(** Parse a JSONL trace from a string, one record per line. *)

val slowest_root : ?name:string -> t -> span option
(** The longest-duration root span; with [name], the longest root (or
    non-root) span so named. Without [name], roots named ["rpc.call"] are
    preferred over infrastructure roots when any exist. *)

val print_summary : t -> unit
(** Per-name span table (count / total / mean / max duration), per-RPC
    table (calls grouped by ["proc"], with outcome counts), trace totals. *)

val print_critical_path : ?root:span -> t -> unit
(** Per-hop latency breakdown along the critical path from [root]
    (default {!slowest_root}): the chain that always descends into the
    child that {e finishes} last (ties to the later sibling), i.e. the
    path that determined the root's end time. One row per hop: name,
    node (its ["node"] attribute, else ["src"], else ["dst"], else
    ["-"]), start, duration, and self time — its duration minus the next
    hop's, the last hop keeping its full duration — which is where on the
    path the time was actually spent. *)
