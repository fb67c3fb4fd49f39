(** Discrete-event simulation engine with cooperative processes.

    The engine plays the role of the operating systems and wall clocks of the
    testbeds SPLAY deploys on: it owns a virtual clock and an event queue,
    and it hosts lightweight cooperative processes implemented with OCaml 5
    effect handlers. Processes are the reproduction of SPLAY's Lua
    coroutines: application code calls blocking-looking operations
    ({!sleep}, {!await}, RPCs built on them) and the handler turns each
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

type fcell = Eheap.fcell = { mutable v : float }

val clock : t -> fcell
(** The engine's clock cell: [(clock t).v = now t]. Reading the field
    loads an unboxed float, where {!now}, a float returned across a module
    boundary, allocates a box per call; hot paths (the network's send)
    read the clock this way. Read it, never write it. *)

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

val perturbation_active : t -> bool

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to 0. *)

val schedule_at : t -> at:fcell -> (unit -> unit) -> event_id
(** Absolute-time variant: [f] runs at [at.v]; times in the past are
    clamped to [now]. The time travels in a flat cell the caller owns (and
    may reuse at once) so that a computed due time is not boxed for the
    call. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event in O(1). Cancelling an already-fired or
    already-cancelled event is a no-op (and does not disturb
    {!pending_events} accounting). Cancelled events are lazily compacted
    out of the queue once they outnumber the live ones, so
    create-then-cancel churn (RPC timeouts) cannot bloat the heap. *)

(** {1 Message queue}

    Messages in flight are the commonest thing an engine queues, so they
    wait in their own queue of slot ids instead of as event records
    holding closures: the one consumer (the engine's {!Splay_net.Net})
    keeps each message's fields in flat columns indexed by the id, and
    the engine hands the id back when the message is due. A posted slot
    takes the next seq and the same perturbation draws as a {!schedule},
    and the engine orders slots and events in one [(at, seq)] order, so a
    run is the same whether a message is a slot or a scheduled closure:
    a fired slot is one event for {!stats} and {!pending_events}, and the
    queue depth counts slots. A slot cannot be cancelled. *)

val set_consumer : t -> (int -> unit) -> unit
(** Install the function every due slot id is handed to. Raises
    [Invalid_argument] if the engine already has a consumer. *)

val post : t -> at:fcell -> int -> unit
(** [post t ~at id] queues slot [id] for [at.v] (clamped to [now], like
    {!schedule_at}); when it is due the consumer gets [id]. Raises
    [Invalid_argument] at that point if no consumer is installed. *)

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
val proc_name : proc -> string

val crashed : t -> (proc * exn) list
(** Processes that terminated with an unexpected exception, most recent
    first. Experiments assert this is empty (see {!check_crashed}). *)

val check_crashed : t -> unit
(** Raise [Failure "process NAME crashed: EXN"] naming the most recent
    crash, if any process crashed. Every harness calls this after a run:
    an experiment with a dying process is not a result. *)

(** {1 Process groups}

    The processes an application instance owns, so that stopping the
    instance can kill them all. Membership is threaded through the
    process records themselves: joining and leaving allocate nothing, and
    a process leaves its group when it terminates. *)

type group

val group : unit -> group
(** An empty group. *)

val join : group -> proc -> unit
(** Add a live process (leaving any group it was in); a dead one is
    ignored. *)

val group_size : group -> int
(** Live members, counted in O(members). *)

val kill_group : t -> group -> unit
(** Empty the group and {!kill} every former member, newest first; the
    calling process, if a member, is killed last (so this raises
    {!Process_killed} in it). *)

(** {1 Blocking operations — valid only inside a process} *)

val sleep : float -> unit
(** Suspend the calling process for the given virtual duration. *)

(** {2 Wakers}

    A waker is one suspension of one process, as a single record: whoever
    will resume the process (an {!Ivar} fill, a {!Channel} send, a reply)
    holds the waker itself, not a closure around it. The protocol:

    + [let w = waker t] inside a process of [t];
    + register [w] wherever the event that ends the wait will find it,
      and optionally arm {!timeout};
    + [await w] parks the process until [w] settles, and returns the
      value or raises the exception it settled with.

    [w] settles exactly once, by the first of {!wake}, its timeout or a
    {!kill} of the process; later attempts are ignored, so a
    reply racing a timeout is safe. Settling cancels the timer and queues
    the resume as a fresh event at the settling instant — also when [w]
    settles during registration, before [await]. A killed process is
    discontinued with {!Process_killed} at the kill instant, and its
    waker stays settled: a resolver that finds it later ({!pending} is
    [false]) drops it. Nothing else is allocated per suspension besides
    the resume event and, with {!timeout}, the timer. *)

type 'a waker

exception Timed_out
(** What {!await} raises when the waker's {!timeout} fired first. *)

val waker : t -> 'a waker
(** A fresh waker for the calling process. From here on the process
    counts as suspended on it for {!kill}. Raises [Invalid_argument]
    outside a process of [t]. *)

val await : 'a waker -> 'a
(** Park the calling process (the one {!waker} was called in) until the
    waker settles. *)

val wake : 'a waker -> 'a -> unit
(** Settle with a value, if still pending. *)

val timeout : 'a waker -> float -> unit
(** Arm the waker's timer, at most once per waker: after the delay it
    settles with {!Timed_out} unless it settled first. *)

val pending : 'a waker -> bool
(** [true] until the waker settles. *)

val waiting : 'a waker -> bool
(** [pending], and its process not killed: a waiter that can still take
    a handoff. A process killed in the current instant stays [pending]
    until its kill event runs; a lock or a message handed to it then
    would be lost with it. *)

val woken : 'a waker -> 'a option
(** The value a {!wake} settled the waker with, if one did. A process
    killed after a handoff reached it, but before it resumed, is
    discontinued with {!Process_killed} all the same: it reads the
    handoff here to pass it on. *)

val self : unit -> proc
(** The calling process. *)

val engine : unit -> t
(** The engine hosting the calling process. *)
