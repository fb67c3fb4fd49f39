(** Discrete-event simulation engine with cooperative processes.

    The engine plays the role of the operating systems and wall clocks of the
    testbeds SPLAY deploys on: it owns a virtual clock and an event queue,
    and it hosts lightweight cooperative processes implemented with OCaml 5
    effect handlers. Processes are the reproduction of SPLAY's Lua
    coroutines: application code calls blocking-looking operations
    ({!sleep}, {!suspend}, RPCs built on them) and the handler turns each
    into an event-queue suspension, so protocol code reads like the
    pseudo-code in the paper.

    Determinism: given the same seed and the same program, a run is exactly
    reproducible. Events scheduled for the same instant fire in scheduling
    order (FIFO) — unless a {!set_perturbation} policy is installed, in
    which case the same-instant order is shuffled (and bounded extra delays
    may be injected) by a dedicated RNG split, making the run a pure
    function of [(seed, policy)] instead; with no policy installed behavior
    is bit-for-bit identical to an engine without the hook.

    Trace-context propagation: the engine captures {!Splay_obs.Obs.current}
    at every {!schedule}/{!spawn} and restores it when the event fires, and
    a suspended process resumes under the context it suspended with — so
    causal trace lineage follows control flow with no help from call sites
    (and costs nothing when tracing is disabled). *)

type t
(** An engine instance. Engines are independent; everything stateful
    (clock, queue, processes, RNG) hangs off the instance. *)

type event_id
(** Handle for a scheduled event; allows cancellation. Internally the
    event record itself, carrying a mutable fired-or-cancelled flag — so
    cancellation is one store, with no table lookup and no allocation. *)

type proc
(** Handle for a spawned process. *)

exception Process_killed
(** Raised inside a process when it is killed ({!kill}); unwinds its stack
    so [Fun.protect] cleanups run. Application code should not catch it
    without re-raising. *)

val create : ?seed:int -> unit -> t
(** Fresh engine, clock at 0.0. [seed] defaults to 42. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** The engine's root RNG. Components should {!Rng.split} it. *)

(** {1 Schedule perturbation — simulation testing}

    The hook behind [splay check]: systematically explore alternative but
    reproducible schedules of the same program. *)

val set_perturbation : ?tie_shuffle:bool -> ?max_extra_delay:float -> t -> unit
(** Install a perturbation policy (splitting the root RNG for its dedicated
    stream, so install it at a fixed point — right after {!create} — for
    reproducibility). [tie_shuffle] (default [true]) randomizes the firing
    order of events scheduled for the same instant, replacing the FIFO
    tie-break; [max_extra_delay] (default [0.]) adds an extra uniform
    [[0, max_extra_delay)] seconds to every scheduled event, modelling OS
    scheduling jitter. Every draw comes from the dedicated split, one or
    two per {!schedule}, independent of queue state — so the explored
    schedule is exactly reproducible from [(seed, policy)]. *)

val clear_perturbation : t -> unit
(** Return to the default FIFO schedule (from now on; already-queued
    events keep their perturbed times and keys). *)

val perturbation_active : t -> bool

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to 0. *)

val schedule_at : t -> at:float -> (unit -> unit) -> event_id
(** Absolute-time variant; times in the past are clamped to [now]. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event in O(1). Cancelling an already-fired or
    already-cancelled event is a no-op (and does not disturb
    {!pending_events} accounting). Cancelled events are lazily compacted
    out of the queue once they outnumber the live ones, so
    create-then-cancel churn (RPC timeouts) cannot bloat the heap. *)

type run_stats = {
  events_fired : int;  (** events executed over the engine's lifetime *)
  final_clock : float;  (** virtual time when the run stopped *)
  max_queue_depth : int;  (** high-water mark of the event queue *)
}
(** What a drive of the engine did — the raw material of every
    "how long / how much" question an experiment asks. *)

val run : ?until:float -> t -> run_stats
(** Drain the event queue, advancing the clock, until it is empty or the
    clock would pass [until] (clock is then set to [until]). Returns the
    engine's cumulative {!run_stats}; callers that only drive the clock
    can [ignore] it. *)

val stats : t -> run_stats
(** Current cumulative statistics without running anything. *)

val step : t -> bool
(** Execute the single next event. [false] if the queue was empty. *)

val next_at : t -> float
(** Virtual time of the next live event, or [infinity] when the queue is
    empty. Does not execute anything (it may lazily discard cancelled
    tombstones at the queue head). This is what {!Par} computes window
    bounds from. *)

val run_to : t -> stop:float -> unit
(** Execute every event with time strictly below [stop], in exact
    [(at, seq)] order, leaving the clock at the last executed event
    (NOT advanced to [stop] — unlike [run ~until], the window is
    half-open and a later [run_to] continues seamlessly). Used by {!Par}
    to drive one partition through one safe window. *)

val pending_events : t -> int
(** Number of scheduled, uncancelled events (cheap upper bound used by
    tests and by {!run}'s accounting). *)

(** {1 Processes} *)

val spawn : ?name:string -> t -> (unit -> unit) -> proc
(** [spawn t f] creates a process executing [f ()] starting at the current
    instant (as a scheduled event). Exceptions escaping [f] other than
    {!Process_killed} are recorded (see {!crashed}) and terminate the
    process. *)

val kill : t -> proc -> unit
(** Terminate a process: if it is currently suspended, its continuation is
    discontinued with {!Process_killed} at the current instant; if it has
    not started, it never starts. Idempotent. *)

val alive : proc -> bool
val proc_id : proc -> int
val proc_name : proc -> string

val on_exit : proc -> (unit -> unit) -> unit
(** Register a callback run (in scheduler context) when the process
    terminates for any reason. Runs immediately if already dead. *)

val crashed : t -> (proc * exn) list
(** Processes that terminated with an unexpected exception, most recent
    first. Experiments assert this is empty (see {!check_crashed}). *)

val check_crashed : t -> unit
(** Raise [Failure "process NAME crashed: EXN"] naming the most recent
    crash, if any process crashed. Every harness calls this after a run:
    an experiment with a dying process is not a result. *)

(** {1 Blocking operations — valid only inside a process} *)

val sleep : float -> unit
(** Suspend the calling process for the given virtual duration. *)

val suspend : ((('a, exn) result -> unit) -> (unit -> unit)) -> 'a
(** [suspend register] captures the calling process's continuation and calls
    [register resolve]. The suspension finishes when [resolve] is called:
    [Ok v] resumes with [v], [Error e] raises [e] in the process. [resolve]
    is one-shot; later calls are ignored (so a reply racing a timeout is
    safe). Resumption happens as a fresh event at the instant [resolve] is
    called.

    [register] returns a cleanup thunk, invoked exactly once when the
    suspension settles (first resolve, or kill of the process); use it to
    cancel backing timers so they do not keep the simulation alive. *)

val suspend_ : ((('a, exn) result -> unit) -> unit) -> 'a
(** {!suspend} with no cleanup. *)

val self : unit -> proc
(** The calling process. *)

val engine : unit -> t
(** The engine hosting the calling process. *)

val yield : unit -> unit
(** Let other events at the current instant run. *)
