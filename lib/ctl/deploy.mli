(** The deploy conversation of splayctl, written once for every backend:
    REGISTER a superset of candidate slots (×[superset], the tradeoff of
    Fig. 12), keep the first [nb_splayd] acks, FREE the stragglers, refill
    shortfalls (two more rounds at [superset + 0.25]), then LIST+START
    each member with its position and bootstrap list. The simulated
    [Controller] and the live [Ctl] both run it over {!val-transport}, the
    daemons' RPC procedures; blocking functions run in a process of the
    transport's engine. *)

(** {1 Selection} *)

type criterion =
  | Min_bandwidth of float  (** bytes/second on the uplink *)
  | Near of (float * float) * float  (** within given delay of virtual coordinates *)
  | On_testbed of Testbed.kind
  | Custom of (Testbed.host -> bool)

type selection_report = {
  sel_alive : int;  (** alive daemons considered *)
  sel_dead : int;  (** daemons skipped: host down or session stale *)
  sel_matched : int;  (** daemons satisfying every criterion *)
  sel_rejected : (string * int) list;
      (** per-criterion rejection counts, in the caller's criteria order; a
          daemon is charged to the first criterion that rejects it *)
}
(** Why a selection came up short. *)

val select :
  Splay_sim.Rng.t ->
  ?criteria:criterion list ->
  alive:('d -> bool) ->
  host:('d -> Testbed.host) ->
  'd list ->
  int ->
  'd list * selection_report
(** [n] slots over the alive daemons matching every criterion ([host] is
    read only for those), shuffled, cycling when [n] exceeds the pool. *)

(** {1 The conversation} *)

type 'd transport = {
  spawn : (unit -> unit) -> unit;  (** run a function in a new process *)
  pace : unit -> unit;  (** dispatch cost after each fanned-out command *)
  register : 'd -> Addr.t option;  (** the new instance, [None] on refusal or timeout *)
  start : 'd -> Addr.t -> position:int -> nodes:Addr.t list -> bool;  (** LIST then START *)
  free : 'd -> Addr.t -> unit;
}

val transport :
  ?register_timeout:float ->
  ?pace:(unit -> unit) ->
  Env.t ->
  addr:('d -> Addr.t) ->
  job:int ->
  'd transport
(** The daemons' {!Daemon} procedures, called from [env] at each daemon's
    control address [addr d] and run in processes of [env]: REGISTER
    ([register_timeout], default 10 s), LIST then START and FREE (30 s
    each). [pace] (default none) runs after each fanned-out command. *)

val fan_out :
  spawn:((unit -> unit) -> unit) -> ?pace:(unit -> unit) -> (unit -> unit) list -> unit
(** Run each thunk in its own process; block until all have returned. *)

val register_round : 'd transport -> 'd list -> need:int -> ('d * Addr.t) list
(** REGISTER every candidate; the first [need] acks in arrival order (later
    ones are FREEd asynchronously). *)

val bootstrap : Splay_sim.Rng.t -> Descriptor.t -> Addr.t list -> Addr.t list
(** One member's bootstrap list; [Random_subset] draws afresh per call. *)

val deploy :
  'd transport ->
  Splay_sim.Rng.t ->
  select:(int -> 'd list * selection_report) ->
  ?superset:float ->
  job:int ->
  name:string ->
  Descriptor.t ->
  ('d * Addr.t * int) list * selection_report
(** The whole conversation ([superset] defaults to the paper's 1.25):
    members (daemon, address, position), in ack order, and the last
    round's report. Emits the [ctl.deploy], [ctl.register_round],
    [ctl.start_phase] spans and [ctl.select_short]. *)

(** {1 Log collection} *)

type log_record = {
  lr_time : float;  (** virtual time at the emitting node *)
  lr_node : string;  (** emitting instance (its address string) *)
  lr_level : Log.level;
  lr_msg : string;
}

type logs
(** A job's collector: counts every record (lines, bytes) and keeps the
    first [cap] in arrival order; the rest are counted as dropped. *)

val logs : cap:int -> logs
val log_add : logs -> time:float -> level:Log.level -> node:string -> string -> unit
val log_sink : logs -> Log.sink
val log_lines : logs -> int
val log_bytes : logs -> int
val log_dropped : logs -> int
val log_records : logs -> log_record list

val dump_logs : logs -> path:string -> unit
(** Write [{"t":…,"ev":"L","node":…,"level":…,"msg":…}] lines to [path]:
    the framing of {!Splay_obs.Obs.trace_jsonl}, so the two files
    interleave by ["t"]. *)
