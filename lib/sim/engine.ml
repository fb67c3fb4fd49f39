open Effect
open Effect.Deep
module Obs = Splay_obs.Obs

exception Process_killed

(* Observability sites: registered once, cheap mutable cells afterwards.
   Recording is gated on [Obs.enabled] so the hot path stays free. *)
let c_events = Obs.counter "engine.events"
let c_spawns = Obs.counter "engine.spawns"
let c_kills = Obs.counter "engine.kills"
let c_crashes = Obs.counter "engine.crashes"
let h_event_wait = Obs.histogram "engine.event_wait"
let g_queue_depth = Obs.gauge "engine.queue_depth"

(* [ctx] is the scheduler's trace context captured when the event was
   scheduled and restored when it fires — causality follows control flow
   through timers, spawns and suspensions without any help from call
   sites. When tracing is off it is always [Obs.null_ctx] (a shared
   immutable record: capturing it allocates nothing).

   The record is kept deliberately small — five words plus the one boxed
   float ([sched], read only by the traced path; the untraced path parks
   the shared constant [0.0] there and never boxes). The [at] key is not
   stored at all: heap entries read it back from {!Eheap.popped_at}, ring
   entries are at the current instant by construction. [info] packs
   (seq lsl 3) lor (popped lsl 2) lor (in_ring lsl 1) lor dead into one
   word: dead means fired-or-cancelled — cancellation is one store on the
   record, no hashing, no allocation, and cancelling an event that
   already fired is structurally a no-op. popped means the record has
   left its queue through [step], so no queue slot aliases it any more —
   the sleep fast path uses (dead && popped) as its licence to recycle a
   record (a cancelled tombstone is dead but still queued, and must not
   be touched). Dead events linger in the queues until popped or
   compacted away (see [cancel]).

   [fn] is mutable so the sleep fast path can resurrect a fired timer
   record as its own resume event instead of allocating a fresh one. *)
type event = {
  mutable info : int; (* bit 0: dead; bit 1: in ring; bit 2: popped; bits 3..: seq *)
  mutable fn : unit -> unit;
  ctx : Obs.ctx;
  sched : float;
}

let[@inline] ev_dead ev = ev.info land 1 <> 0
let[@inline] ev_mark_fired ev = ev.info <- ev.info lor 5 (* dead + popped *)
let[@inline] ev_mark_dead ev = ev.info <- ev.info lor 1
let[@inline] ev_in_ring ev = ev.info land 2 <> 0
let[@inline] ev_seq ev = ev.info lsr 3

type proc_state = Pending | Active | Dead

(* Schedule perturbation — the hook Splay_check drives. When installed,
   every scheduled event may receive a bounded extra delay and a shuffled
   same-instant tie-break key, both drawn from a dedicated split of the
   root RNG taken at install time: the explored schedule is a pure
   function of (seed, policy), and the default path pays one [None] check
   per schedule and nothing else. *)
type perturbation = {
  p_rng : Rng.t;
  p_tie_shuffle : bool;
  p_max_extra_delay : float;
}

(* Flat mutable float cell: a plain mutable float field in the mixed
   engine record would be boxed on every store. *)
type fcell = { mutable v : float }

type t = {
  (* flat cell, not [mutable now : float]: a mutable float field of this
     mixed record would allocate a fresh box on every clock advance —
     i.e. on every heap pop *)
  now : fcell;
  queue : event Eheap.t;
  (* Same-instant ring: events scheduled for [at = now] while no
     perturbation policy is installed. Such an event must fire after every
     event already queued (all have smaller seq) and before anything at a
     later instant, so a FIFO ring gives the exact (at, seq) pop order at
     O(1) per event — no sift through the standing heap. Invariants: every
     ring entry has [at = now] (the ring drains before the clock advances),
     and any heap entry with [at = now] predates — hence precedes — every
     ring entry. [ring] is a power-of-two circular buffer. *)
  mutable ring : event array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable ring_dead : int; (* cancelled events still sitting in the ring *)
  mutable next_seq : int;
  mutable next_pid : int;
  root_rng : Rng.t;
  mutable perturb : perturbation option;
  mutable current : proc option;
  mutable crashed_list : (proc * exn) list;
  mutable live_events : int;
  mutable heap_dead : int; (* cancelled events still sitting in the heap *)
  mutable events_fired : int;
  mutable max_queue_depth : int;
  (* The effect handler shared by every process of this engine. Built once
     in [create]; [spawn] used to build an equivalent closure triple per
     process, which made handler construction the dominant spawn cost. The
     handler finds the process it is serving through [current], which is
     always [Some p] while p's fiber runs (see [with_current]). *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  (* Preallocated effc results: [effc] would otherwise allocate a [Some]
     and a closure on every perform. The GADT match refines the
     continuation type, so one shared value per effect suffices; [Sleep]'s
     float argument travels through [sleep_arg] (set under the same
     non-reentrant dispatch that reads it). *)
  mutable eff_self : ((proc, unit) continuation -> unit) option;
  mutable eff_sleep : ((unit, unit) continuation -> unit) option;
  sleep_arg : fcell;
}

and proc = {
  pid : int;
  (* Lazily named: the common anonymous spawn does not build its
     "proc-<pid>" string until someone ([proc_name], a traced spawn event,
     a crash report) actually asks for it. [unnamed] is a sentinel compared
     physically, so an explicit empty name is still honored. *)
  mutable pname : string;
  eng : t;
  mutable state : proc_state;
  mutable killed : bool;
  (* Cooperative processes have at most one outstanding suspension; this
     thunk discontinues it with Process_killed. *)
  mutable cancel_pending : (unit -> unit) option;
  mutable exit_hooks : (unit -> unit) list;
  (* [Some p], allocated once at spawn: every [t.current <- Some p] store
     on the resume paths reuses it instead of boxing a fresh option. *)
  self_opt : proc option;
  (* Sleep fast-path machinery (see [handle_sleep]): built on the first
     sleep, reused for every later one, so a steady-state sleep allocates
     only the stored continuation — the timer event record itself is
     recycled from the previous round once it is (dead && popped).
     [sleep_k] holds the suspended continuation directly, not behind an
     option: the [Obj.magic 0] sentinel (an immediate, GC-safe) stands
     for "none", and [sleep_state] already tracks whether a continuation
     is pending, so the wrapper only cost an allocation per sleep. *)
  mutable sleep_state : int; (* 0 idle; 1 timer pending; 2 resume pending *)
  mutable sleep_k : (unit, unit) continuation;
  mutable sleep_ctx : Obs.ctx;
  mutable sleep_ev : event; (* the in-flight timer (then resume) record *)
  mutable sleep_timer_fn : unit -> unit;
  mutable sleep_resume_fn : unit -> unit;
  mutable sleep_cancel : (unit -> unit) option; (* preallocated [Some] *)
}

type event_id = event

type _ Effect.t += Suspend : ((('a, exn) result -> unit) -> (unit -> unit)) -> 'a Effect.t
type _ Effect.t += Self : proc Effect.t

(* [sleep] is the single most frequent suspension (every periodic loop,
   every yield): it gets its own effect so the handler can wire the timer
   and resume events directly, with none of the register/resolve/cleanup
   closures of the generic [Suspend] protocol. The event schedule it
   produces is exactly the one the generic path produced — same schedule
   calls, same order, same delays — so fixed-seed traces are unchanged. *)
type _ Effect.t += Sleep : float -> unit Effect.t

let unnamed = String.make 0 'x' (* fresh, physically distinct from any literal *)

let proc_name p =
  if p.pname == unnamed then begin
    let n = "proc-" ^ string_of_int p.pid in
    p.pname <- n;
    n
  end
  else p.pname

let now t = t.now.v
let rng t = t.root_rng

let clear_perturbation t = t.perturb <- None
let perturbation_active t = t.perturb <> None

(* Placeholder parked in vacated ring slots so popped events do not stay
   reachable through the buffer. [info = 1] is dead-but-not-popped, so the
   sleep fast path can never mistake it for a recyclable record. *)
let dummy_event = { info = 1; fn = ignore; ctx = Obs.null_ctx; sched = 0.0 }

(* "No continuation" sentinel for [proc.sleep_k]: an immediate value is
   GC-safe in a pointer-typed field, and [sleep_state] guarantees the
   field is never read while it holds the sentinel. *)
let null_k : (unit, unit) continuation = Obj.magic 0

let ring_push t ev =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let nr = Array.make ncap dummy_event in
    for i = 0 to t.ring_len - 1 do
      nr.(i) <- t.ring.((t.ring_head + i) land (cap - 1))
    done;
    t.ring <- nr;
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + t.ring_len) land (Array.length t.ring - 1)) <- ev;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  let i = t.ring_head in
  let ev = t.ring.(i) in
  t.ring.(i) <- dummy_event;
  t.ring_head <- (i + 1) land (Array.length t.ring - 1);
  t.ring_len <- t.ring_len - 1;
  ev

let queue_depth t = Eheap.size t.queue + t.ring_len

let[@inline] note_depth t =
  let depth = queue_depth t in
  if depth > t.max_queue_depth then begin
    t.max_queue_depth <- depth;
    if !Obs.enabled || !Obs.metrics_enabled then Obs.gauge_set g_queue_depth (Float.of_int depth)
  end

let set_perturbation ?(tie_shuffle = true) ?(max_extra_delay = 0.0) t =
  (* A perturbed schedule keys same-instant events by a random draw, so the
     FIFO ring no longer reflects pop order: spill pending ring entries into
     the heap (keeping their original FIFO keys) and stop using it. *)
  while t.ring_len > 0 do
    let ev = ring_pop t in
    ev.info <- ev.info land lnot 2;
    if ev_dead ev then begin
      t.ring_dead <- t.ring_dead - 1;
      t.heap_dead <- t.heap_dead + 1
    end;
    Eheap.push t.queue ~at:t.now.v ~seq:(ev_seq ev) ev
  done;
  t.perturb <-
    Some
      {
        p_rng = Rng.split t.root_rng;
        p_tie_shuffle = tie_shuffle;
        p_max_extra_delay = max_extra_delay;
      }

let schedule_at t ~at fn =
  let at = if at < t.now.v then t.now.v else at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  match t.perturb with
  | None ->
      (* context capture is a domain-local read and [sched] a float box;
         skip both when tracing is off — contexts are all null then, and
         [sched] is only ever read by the traced wait histogram *)
      let traced = !Obs.enabled in
      let ctx = if traced then Obs.current () else Obs.null_ctx in
      let sched = if traced then t.now.v else 0.0 in
      if at = t.now.v then begin
        (* same-instant: FIFO ring, O(1) and no heap traffic *)
        let ev = { info = (seq lsl 3) lor 2; fn; ctx; sched } in
        ring_push t ev;
        t.live_events <- t.live_events + 1;
        note_depth t;
        ev
      end
      else begin
        let ev = { info = seq lsl 3; fn; ctx; sched } in
        Eheap.push t.queue ~at ~seq ev;
        t.live_events <- t.live_events + 1;
        note_depth t;
        ev
      end
  | Some p ->
      let at =
        if p.p_max_extra_delay > 0.0 then at +. Rng.float p.p_rng p.p_max_extra_delay else at
      in
      let key =
        if p.p_tie_shuffle then (Rng.int p.p_rng 0x40000000 lsl 31) lor (seq land 0x7FFFFFFF)
        else seq
      in
      let ctx = if !Obs.enabled then Obs.current () else Obs.null_ctx in
      let sched = if !Obs.enabled then t.now.v else 0.0 in
      let ev = { info = seq lsl 3; fn; ctx; sched } in
      Eheap.push t.queue ~at ~seq:key ev;
      t.live_events <- t.live_events + 1;
      note_depth t;
      ev

let schedule t ~delay fn =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~at:(t.now.v +. delay) fn

(* Cancelled events stay in their queue as tombstones until they surface at
   the top — except that create-then-cancel churn (RPC timeouts are
   exactly this) could then grow the heap without bound. When more than
   half the heap is dead we compact it in place: O(n), amortised against
   the cancels that built the garbage up. (Ring tombstones drain at the
   current instant by themselves.) *)
let cancel t ev =
  if not (ev_dead ev) then begin
    ev_mark_dead ev;
    t.live_events <- t.live_events - 1;
    if ev_in_ring ev then t.ring_dead <- t.ring_dead + 1
    else t.heap_dead <- t.heap_dead + 1;
    (* trigger accounting spans both queues so the compaction instants (and
       hence the queue-depth high-water marks experiments record) are the
       ones the single-heap engine produced *)
    let dead = t.heap_dead + t.ring_dead in
    if dead > 64 && 2 * dead > queue_depth t then begin
      Eheap.filter_in_place t.queue (fun e -> not (ev_dead e));
      t.heap_dead <- 0;
      if t.ring_dead > 0 then begin
        (* stable in-place compaction of the circular buffer *)
        let cap = Array.length t.ring in
        let j = ref 0 in
        for i = 0 to t.ring_len - 1 do
          let ev = t.ring.((t.ring_head + i) land (cap - 1)) in
          if not (ev_dead ev) then begin
            t.ring.((t.ring_head + !j) land (cap - 1)) <- ev;
            incr j
          end
        done;
        for i = !j to t.ring_len - 1 do
          t.ring.((t.ring_head + i) land (cap - 1)) <- dummy_event
        done;
        t.ring_len <- !j;
        t.ring_dead <- 0
      end
    end
  end

let pending_events t = t.live_events

(* Next event in exact (at, seq) order, or [dummy_event] when both queues
   are empty (an allocation-free "none"). A heap entry with [at = now]
   precedes every ring entry (it was queued before the clock reached [now],
   so its seq is smaller); otherwise a non-empty ring holds the next event
   (its head is at [now], the heap minimum is later). *)
let rec pop_live t =
  if t.ring_len > 0 && Eheap.min_at t.queue <> t.now.v then begin
    let ev = ring_pop t in
    if ev_dead ev then begin
      t.ring_dead <- t.ring_dead - 1;
      pop_live t
    end
    else ev
  end
  else begin
    let ev = Eheap.pop_or t.queue dummy_event in
    if ev == dummy_event then dummy_event
    else if ev_dead ev then begin
      t.heap_dead <- t.heap_dead - 1;
      pop_live t
    end
    else ev
  end

let step t =
  let ev = pop_live t in
  if ev == dummy_event then false
  else begin
    (* ring events are at the current instant; heap events carry the
       clock forward via the key of the pop that surfaced them *)
    if not (ev_in_ring ev) then t.now.v <- Eheap.popped_at t.queue;
    ev_mark_fired ev (* fired: a late cancel must not touch the accounting *);
    t.live_events <- t.live_events - 1;
    t.events_fired <- t.events_fired + 1;
    if !Obs.enabled then begin
      Obs.incr c_events;
      Obs.observe h_event_wait (t.now.v -. ev.sched);
      Obs.set_current ev.ctx
    end
    else if !Obs.metrics_enabled then
      (* metrics-only: windowed event rate, but no wait histogram — [sched]
         is only stamped (and timer records never recycled) when tracing,
         and that licence is what keeps this path allocation-lean *)
      Obs.incr c_events;
    ev.fn ();
    true
  end

type run_stats = { events_fired : int; final_clock : float; max_queue_depth : int }

let stats (t : t) =
  { events_fired = t.events_fired; final_clock = t.now.v; max_queue_depth = t.max_queue_depth }

(* Pop cancelled tombstones off the *global* queue head so the limit check
   in [run ~until] reflects the next *live* event. Without this, a dead
   head with [at <= limit] passes the limit check and [step] — which skips
   tombstones unconditionally — would fire the next live event even past
   the limit. The drain follows exact (at, seq) order — same selection
   rule as [pop_live] — and stops at the first live event, so tombstones
   sitting behind a live entry are removed no earlier than the single-heap
   engine removed them (the queue-depth gauge sees identical values). *)
let rec drain_dead_head t =
  if t.ring_len > 0 && Eheap.min_at t.queue <> t.now.v then begin
    if ev_dead t.ring.(t.ring_head) then begin
      ignore (ring_pop t);
      t.ring_dead <- t.ring_dead - 1;
      drain_dead_head t
    end
  end
  else begin
    let ev = Eheap.top_or t.queue dummy_event in
    if ev != dummy_event && ev_dead ev then begin
      ignore (Eheap.pop_or t.queue dummy_event);
      t.heap_dead <- t.heap_dead - 1;
      drain_dead_head t
    end
  end

let run ?until t =
  (match until with
  | None -> while step t do () done
  | Some limit ->
      let continue_run = ref true in
      while !continue_run do
        drain_dead_head t;
        (* a live ring entry is at the current instant by construction *)
        let at = if t.ring_len > 0 then t.now.v else Eheap.min_at t.queue in
        if at > limit then continue_run := false else ignore (step t)
      done;
      if t.now.v < limit then t.now.v <- limit);
  stats t

(* [next_at] / [run_to]: the window primitives the parallel engine (Par)
   drives partitions with. Unlike [run ~until], [run_to] treats [stop] as
   exclusive and never advances the clock into the unexecuted region —
   a later window (or an absorbed cross-partition message at exactly
   [stop]) continues seamlessly from wherever this partition halted. *)

let next_at t =
  drain_dead_head t;
  if t.ring_len > 0 then t.now.v else Eheap.min_at t.queue

let run_to t ~stop =
  let continue_run = ref true in
  while !continue_run do
    drain_dead_head t;
    let at = if t.ring_len > 0 then t.now.v else Eheap.min_at t.queue in
    if at >= stop then continue_run := false else ignore (step t)
  done

(* {2 Processes} *)

let alive p = p.state <> Dead
let proc_id p = p.pid

let run_exit_hooks p =
  let hooks = p.exit_hooks in
  p.exit_hooks <- [];
  List.iter (fun h -> h ()) (List.rev hooks)

let on_exit p h = if p.state = Dead then h () else p.exit_hooks <- h :: p.exit_hooks

let crashed t = t.crashed_list

let check_crashed t =
  match t.crashed_list with
  | [] -> ()
  | (p, e) :: _ ->
      failwith (Printf.sprintf "process %s crashed: %s" (proc_name p) (Printexc.to_string e))

(* [Fun.protect]-free current-process bracket: the restore cannot raise, so
   a plain re-raise is equivalent and allocates nothing. *)
let with_current t p f =
  let saved = t.current in
  t.current <- p.self_opt;
  match f () with
  | x ->
      t.current <- saved;
      x
  | exception e ->
      t.current <- saved;
      raise e

(* The process the shared handler is serving: its fiber only ever runs
   under [with_current], so [current] is [Some p] at every retc/exnc/effc
   entry. *)
let cur t = match t.current with Some p -> p | None -> assert false

let finish p =
  if p.state <> Dead then begin
    p.state <- Dead;
    p.cancel_pending <- None;
    run_exit_hooks p
  end

(* Generic suspension (the [Suspend] effect): capture the continuation,
   hand user code a one-shot [resolve], arrange for kill to discontinue.
   All one-shot coordination lives in one small mutable record instead of
   the former pair of refs plus a shared settle closure. *)
type susp = { mutable settled : bool; mutable cleanup : unit -> unit }

let noop () = ()

let handle_suspend : type a.
    t -> proc -> (((a, exn) result -> unit) -> unit -> unit) -> (a, unit) continuation -> unit =
 fun t p register k ->
  (* A process keeps its own trace context across a suspension: the resume
     event would otherwise inherit the resolver's context (e.g. a reply
     delivery), misattributing everything the process does next. Gated so
     the disabled path does not even read domain-local state. *)
  let traced = !Obs.enabled in
  let susp_ctx = if traced then Obs.current () else Obs.null_ctx in
  let s = { settled = false; cleanup = noop } in
  let settle () =
    s.settled <- true;
    p.cancel_pending <- None;
    let c = s.cleanup in
    s.cleanup <- noop;
    c ()
  in
  p.cancel_pending <-
    Some
      (fun () ->
        if not s.settled then begin
          settle ();
          with_current t p (fun () ->
              if traced then Obs.set_current susp_ctx;
              discontinue k Process_killed)
        end);
  let resolve r =
    if not s.settled then begin
      settle ();
      ignore
        (schedule t ~delay:0.0 (fun () ->
             if p.state = Dead then ()
             else begin
               let saved = t.current in
               t.current <- p.self_opt;
               if traced then Obs.set_current susp_ctx;
               match
                 if p.killed then discontinue k Process_killed
                 else match r with Ok v -> continue k v | Error e -> discontinue k e
               with
               | () -> t.current <- saved
               | exception e ->
                   t.current <- saved;
                   raise e
             end))
    end
  in
  let c = register resolve in
  if s.settled then c () else s.cleanup <- c

(* Sleep fast path. Event-for-event identical to routing a timer through
   [handle_suspend] — one timer event now, one resume event when it fires,
   one thunk event on kill — but with no per-sleep closures: the timer,
   resume and kill actions are built once per process on its first sleep
   and driven by a small state machine ([sleep_state]) on the record.
   When tracing is off the fired timer record itself is resurrected (fresh
   seq, [fn] flipped to the resume action) as the same-instant resume
   event, so a steady-state sleep allocates only the timer record and the
   stored continuation. *)

let sleep_resume t p () =
  p.sleep_state <- 0;
  let k = p.sleep_k in
  p.sleep_k <- null_k;
  if p.state = Dead then ()
  else begin
    let saved = t.current in
    t.current <- p.self_opt;
    if !Obs.enabled then Obs.set_current p.sleep_ctx;
    match if p.killed then discontinue k Process_killed else continue k () with
    | () -> t.current <- saved
    | exception e ->
        t.current <- saved;
        raise e
  end

let sleep_timer t p () =
  p.cancel_pending <- None;
  p.sleep_state <- 2;
  if (not !Obs.enabled) && t.perturb == None then begin
    (* resurrect the fired timer record as the resume event: this is
       exactly [schedule ~delay:0.0] — fresh seq, same-instant ring entry —
       minus the allocation (and minus the ctx/sched refresh, which only
       the traced path reads) *)
    let ev = p.sleep_ev in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    ev.info <- (seq lsl 3) lor 2;
    ev.fn <- p.sleep_resume_fn;
    ring_push t ev;
    t.live_events <- t.live_events + 1;
    note_depth t
  end
  else p.sleep_ev <- schedule t ~delay:0.0 p.sleep_resume_fn

let sleep_kill t p () =
  (* runs as the kill thunk: only a still-pending timer needs acting on —
     once the timer fired ([sleep_state = 2]) the resume event is already
     queued and will observe [killed] *)
  if p.sleep_state = 1 then begin
    p.sleep_state <- 0;
    cancel t p.sleep_ev;
    p.cancel_pending <- None;
    let k = p.sleep_k in
    p.sleep_k <- null_k;
    let saved = t.current in
    t.current <- p.self_opt;
    if !Obs.enabled then Obs.set_current p.sleep_ctx;
    match discontinue k Process_killed with
    | () -> t.current <- saved
    | exception e ->
        t.current <- saved;
        raise e
  end

(* The delay travels through [t.sleep_arg] (set by the [Sleep] dispatch in
   [effc] just before this runs), not as a float parameter: without
   cross-module inlining a float argument is boxed at every call. *)
let handle_sleep t p (k : (unit, unit) continuation) =
  let d = t.sleep_arg.v in
  if p.sleep_cancel == None then begin
    p.sleep_timer_fn <- sleep_timer t p;
    p.sleep_resume_fn <- sleep_resume t p;
    p.sleep_cancel <- Some (sleep_kill t p)
  end;
  p.sleep_k <- k;
  p.sleep_ctx <- (if !Obs.enabled then Obs.current () else Obs.null_ctx);
  p.sleep_state <- 1;
  let ev = p.sleep_ev in
  if
    ev.info land 5 = 5 (* dead && popped: fired and fully dequeued *)
    && (not !Obs.enabled)
    && t.perturb == None
  then begin
    (* Recycle last round's record as this round's timer: the proc is the
       only holder of a fired record, so in the steady state one event
       record serves a proc for its whole life and a sleep allocates
       nothing but the stored continuation. Exactly [schedule ~delay:d]
       minus the allocation; ctx/sched refresh is skipped — stale values
       are only ever read by the traced path, and a record is never
       recycled while tracing is on. *)
    let d = if d < 0.0 then 0.0 else d in
    let at = t.now.v +. d in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    ev.fn <- p.sleep_timer_fn;
    if at = t.now.v then begin
      ev.info <- (seq lsl 3) lor 2;
      ring_push t ev
    end
    else begin
      ev.info <- seq lsl 3;
      Eheap.push t.queue ~at ~seq ev
    end;
    t.live_events <- t.live_events + 1;
    note_depth t
  end
  else p.sleep_ev <- schedule t ~delay:d p.sleep_timer_fn;
  p.cancel_pending <- p.sleep_cancel

let make_handler t : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> finish (cur t));
    exnc =
      (fun e ->
        let p = cur t in
        (match e with
        | Process_killed -> ()
        | e ->
            t.crashed_list <- (p, e) :: t.crashed_list;
            Obs.incr c_crashes;
            if !Obs.enabled then
              Obs.event
                ~attrs:[ ("proc", proc_name p); ("exn", Printexc.to_string e) ]
                "engine.crash");
        finish p);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Self ->
            let r : ((b, unit) continuation -> unit) option = t.eff_self in
            r
        | Sleep d ->
            t.sleep_arg.v <- d;
            let r : ((b, unit) continuation -> unit) option = t.eff_sleep in
            r
        | Suspend register ->
            Some (fun (k : (b, unit) continuation) -> handle_suspend t (cur t) register k)
        | _ -> None);
  }

let create ?(seed = 42) () =
  let t =
    {
      now = { v = 0.0 };
      queue = Eheap.create ();
      ring = [||];
      ring_head = 0;
      ring_len = 0;
      ring_dead = 0;
      next_seq = 0;
      next_pid = 0;
      root_rng = Rng.create seed;
      perturb = None;
      current = None;
      crashed_list = [];
      live_events = 0;
      heap_dead = 0;
      events_fired = 0;
      max_queue_depth = 0;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      eff_self = None;
      eff_sleep = None;
      sleep_arg = { v = 0.0 };
    }
  in
  t.handler <- make_handler t;
  t.eff_self <- Some (fun (k : (proc, unit) continuation) -> continue k (cur t));
  t.eff_sleep <- Some (fun (k : (unit, unit) continuation) -> handle_sleep t (cur t) k);
  (* The trace is stamped with virtual time: the most recently created
     engine on this domain owns the observability clock. *)
  Obs.set_clock (fun () -> t.now.v);
  t

let spawn ?name t f =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let rec p =
    {
      pid;
      pname = (match name with Some n -> n | None -> unnamed);
      eng = t;
      state = Pending;
      killed = false;
      cancel_pending = None;
      exit_hooks = [];
      self_opt = Some p;
      sleep_state = 0;
      sleep_k = null_k;
      sleep_ctx = Obs.null_ctx;
      sleep_ev = dummy_event;
      sleep_timer_fn = noop;
      sleep_resume_fn = noop;
      sleep_cancel = None;
    }
  in
  Obs.incr c_spawns;
  if !Obs.enabled then
    (* attr key is proc_id, not pid: pid is the record's parent-span field *)
    Obs.event ~attrs:[ ("proc", proc_name p); ("proc_id", string_of_int pid) ] "engine.spawn";
  ignore
    (schedule t ~delay:0.0 (fun () ->
         if p.state = Pending && not p.killed then begin
           p.state <- Active;
           with_current t p (fun () -> match_with f () t.handler)
         end
         else if p.state = Pending then begin
           p.state <- Dead;
           run_exit_hooks p
         end));
  p

let note_kill p =
  Obs.incr c_kills;
  if !Obs.enabled then
    Obs.event ~attrs:[ ("proc", proc_name p); ("proc_id", string_of_int p.pid) ] "engine.kill"

let kill t p =
  match p.state with
  | Dead -> ()
  | Pending ->
      if not p.killed then begin
        p.killed <- true;
        note_kill p;
        (* the start event will notice and run exit hooks *)
        ignore
          (schedule t ~delay:0.0 (fun () ->
               if p.state = Pending then begin
                 p.state <- Dead;
                 run_exit_hooks p
               end))
      end
  | Active ->
      if not p.killed then begin
        p.killed <- true;
        note_kill p;
        match p.cancel_pending with
        | Some thunk ->
            p.cancel_pending <- None;
            ignore (schedule t ~delay:0.0 thunk)
        | None ->
            (match t.current with
            | Some q when q == p ->
                (* self-kill while running: unwind immediately *)
                raise Process_killed
            | _ ->
                (* a resume is already scheduled; it will observe [killed]
                   and discontinue *)
                ())
      end

(* {2 Blocking operations} *)

let self () = perform Self
let engine () = (perform Self).eng
let suspend register = perform (Suspend register)
let suspend_ register = suspend (fun resolve -> register resolve; fun () -> ())
let sleep d = perform (Sleep d)
let yield () = sleep 0.0
