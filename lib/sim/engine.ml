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

(* An event is three words: header, [info] and [fn]. Everything the
   traced path needs lives in [fn]: an event scheduled while tracing is on
   gets a wrapper closure ({!traced_fn}) that carries the scheduler's trace
   context and the scheduling instant, records [engine.event_wait] and
   restores the context when it fires — causality follows control flow
   through timers, spawns and suspensions without any help from call
   sites, and the untraced path carries neither.

   The [at] key is not stored at all: heap entries read it back from the
   heap's popped-key cell, ring entries are at the current instant by
   construction. [info] packs
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
   engine record would be boxed on every store. The heap's own cell type,
   so the popped key is read without a boxing call. *)
type fcell = Eheap.fcell = { mutable v : float }

type t = {
  (* flat cell, not [mutable now : float]: a mutable float field of this
     mixed record would allocate a fresh box on every clock advance —
     i.e. on every heap pop *)
  now : fcell;
  queue : event Eheap.t;
  popped : fcell; (* [Eheap.popped_cell queue]: the key of the last pop *)
  key : fcell; (* the key of the next heap push *)
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
  (* Message queue: every message in flight waits here as a slot id, keyed
     by the same [(at, seq)] counter and perturbation draws as an event,
     while its columns (source, destination, payload) live in the one
     consumer that owns the ids ({!Splay_net.Net}). A slot is no record
     and no closure: the queue holds three words per message, the
     consumer's columns a few more. The next entry in [(at, seq)] order is
     the least of the ring head, the heap top and this queue's top (see
     [next_src]); a fired slot counts as one event. *)
  msgq : int Eheap.t;
  mpopped : fcell; (* [Eheap.popped_cell msgq] *)
  mutable consumer : int -> unit;
  mutable next_seq : int;
  mutable next_pid : int;
  root_rng : Rng.t;
  mutable perturb : perturbation option;
  (* The process whose fiber is running, or [null_proc]. *)
  mutable current : proc;
  mutable crashed_list : (proc * exn) list;
  mutable live_events : int;
  mutable heap_dead : int; (* cancelled events still sitting in the heap *)
  mutable events_fired : int;
  mutable max_queue_depth : int;
  (* The effect handler shared by every process of this engine. Built once
     in [create]; [spawn] used to build an equivalent closure triple per
     process, which made handler construction the dominant spawn cost. The
     handler finds the process it is serving through [current], which is
     always that process while its fiber runs. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  (* Preallocated effc results: [effc] would otherwise allocate a [Some]
     and a closure on every perform. The GADT match refines the
     continuation type, so one shared value per effect suffices; [Sleep]'s
     float argument travels through [sleep_arg] and [Await]'s waker
     through [await_arg] (each set under the same non-reentrant dispatch
     that reads it). [Await] is polymorphic in its result, so its shared
     value is stored at [Obj.t] and cast back at dispatch: the handler
     only stores the continuation, whatever its type. *)
  mutable eff_self : ((proc, unit) continuation -> unit) option;
  mutable eff_sleep : ((unit, unit) continuation -> unit) option;
  mutable eff_await : ((Obj.t, unit) continuation -> unit) option;
  sleep_arg : fcell;
  mutable await_arg : Obj.t;
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
  (* What a kill must interrupt. Cooperative processes have at most one
     outstanding suspension: [not_parked] for none, the process's
     [sleeper] while a sleep timer is pending, or the waker it is parked
     on. Compared physically, so the field boxes nothing. *)
  mutable parked : Obj.t;
  (* [no_sleeper] until the first [sleep]: a process that never sleeps
     (an RPC handler, a one-shot task) carries no sleep machinery. *)
  mutable sleeper : sleeper;
  (* Membership of a {!group}: an intrusive doubly-linked list, newest
     first, so joining and leaving allocate nothing. *)
  mutable grp : group;
  mutable g_prev : proc;
  mutable g_next : proc;
}

(* Sleep fast-path machinery (see [handle_sleep]): built on the first
   sleep, reused for every later one, so a steady-state sleep allocates
   only the stored continuation — the timer event record itself is
   recycled from the previous round once it is (dead && popped).
   [sl_k] holds the suspended continuation directly, not behind an
   option: the [null_k] sentinel stands for "none", and [sl_state]
   already tracks whether a continuation is pending. *)
and sleeper = {
  mutable sl_state : int; (* 0 idle; 1 timer pending; 2 resume pending *)
  mutable sl_k : (unit, unit) continuation;
  mutable sl_ctx : Obs.ctx;
  mutable sl_ev : event; (* the in-flight timer (then resume) record *)
  sl_timer_fn : unit -> unit;
  sl_resume_fn : unit -> unit;
}

and group = { mutable g_head : proc }

type event_id = event

type _ Effect.t += Self : proc Effect.t

(* [sleep] is the single most frequent suspension (every periodic loop,
   every yield): it gets its own effect so the handler can wire the timer
   and resume events directly, with no waker at all. The event schedule it
   produces is exactly the one a waker with a timer would produce — same
   schedule calls, same order, same delays. *)
type _ Effect.t += Sleep : float -> unit Effect.t

(* Parking on a waker: the handler only stores the continuation in it. *)
type _ Effect.t += Await : Obj.t -> Obj.t Effect.t

let unnamed = String.make 0 'x' (* fresh, physically distinct from any literal *)

let proc_name p =
  if p.pname == unnamed then begin
    let n = "proc-" ^ string_of_int p.pid in
    p.pname <- n;
    n
  end
  else p.pname

let now t = t.now.v
let clock t = t.now
let rng t = t.root_rng

let perturbation_active t = t.perturb <> None

(* Placeholder parked in vacated ring slots so popped events do not stay
   reachable through the buffer. [info = 1] is dead-but-not-popped, so the
   sleep fast path can never mistake it for a recyclable record. *)
let dummy_event = { info = 1; fn = ignore }

let noop () = ()

(* Sentinels stored in pointer-typed fields, compared physically: an
   immediate value is GC-safe there, and each field's owner guarantees it
   is never dereferenced while it holds one. [null_k] stands for "no
   continuation" ([sleeper.sl_k], [waker.w_k]), [null_proc] for "no
   process" ([t.current], group links) and [not_parked] for "no
   suspension" ([proc.parked]). *)
let[@inline] null_k () : ('a, unit) continuation = Obj.magic 0
let null_proc : proc = Obj.magic 0
let not_parked : Obj.t = Obj.repr 0

let no_sleeper =
  {
    sl_state = 0;
    sl_k = null_k ();
    sl_ctx = Obs.null_ctx;
    sl_ev = dummy_event;
    sl_timer_fn = noop;
    sl_resume_fn = noop;
  }

let no_group = { g_head = null_proc }

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

let queue_depth t = Eheap.size t.queue + t.ring_len + Eheap.size t.msgq

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
    Eheap.push t.queue ~at:t.now ~seq:(ev_seq ev) ev
  done;
  t.perturb <-
    Some
      {
        p_rng = Rng.split t.root_rng;
        p_tie_shuffle = tie_shuffle;
        p_max_extra_delay = max_extra_delay;
      }

(* The traced event action: the trace context and instant of scheduling
   ride in the closure, not in every event record. The wait histogram
   thus only ever sees events scheduled while tracing was on, and both
   sites stay quiet if tracing was switched off before the event fired. *)
let traced_fn t fn =
  let ctx = Obs.current () and sched = t.now.v in
  fun () ->
    if !Obs.enabled then begin
      Obs.observe h_event_wait (t.now.v -. sched);
      Obs.set_current ctx
    end;
    fn ()

(* The draws of one perturbed schedule, extra delay first, then the tie
   key: [t.key] gets the due time, the result is the heap key. *)
let[@inline] perturbed_key t p at seq =
  t.key.v <- (if p.p_max_extra_delay > 0.0 then at +. Rng.float p.p_rng p.p_max_extra_delay else at);
  if p.p_tie_shuffle then (Rng.int p.p_rng 0x40000000 lsl 31) lor (seq land 0x7FFFFFFF) else seq

(* The due time stays unboxed from the caller's arithmetic to the heap:
   [schedule_v] is inlined into [schedule] and [schedule_at], and the key
   reaches [Eheap.push] through the flat cell [t.key]. *)
let[@inline] schedule_v t at fn =
  let at = if at < t.now.v then t.now.v else at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let fn = if !Obs.enabled then traced_fn t fn else fn in
  match t.perturb with
  | None ->
      if at = t.now.v then begin
        (* same-instant: FIFO ring, O(1) and no heap traffic *)
        let ev = { info = (seq lsl 3) lor 2; fn } in
        ring_push t ev;
        t.live_events <- t.live_events + 1;
        note_depth t;
        ev
      end
      else begin
        let ev = { info = seq lsl 3; fn } in
        t.key.v <- at;
        Eheap.push t.queue ~at:t.key ~seq ev;
        t.live_events <- t.live_events + 1;
        note_depth t;
        ev
      end
  | Some p ->
      let key = perturbed_key t p at seq in
      let ev = { info = seq lsl 3; fn } in
      Eheap.push t.queue ~at:t.key ~seq:key ev;
      t.live_events <- t.live_events + 1;
      note_depth t;
      ev

let schedule_at t ~(at : fcell) fn = schedule_v t at.v fn

let no_consumer (_ : int) = invalid_arg "Engine.post: the engine has no message consumer"

let set_consumer t f =
  if t.consumer != no_consumer then
    invalid_arg "Engine.set_consumer: the engine already has a message consumer";
  t.consumer <- f

(* [schedule_v] for a slot: the same seq, the same perturbation draws in
   the same order, the same depth accounting — only the queue differs. A
   slot due at the current instant waits in [msgq] too, not in the ring:
   [next_src] orders it against the ring head by seq. *)
let post t ~(at : fcell) id =
  let at = if at.v < t.now.v then t.now.v else at.v in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let key =
    match t.perturb with
    | None ->
        t.key.v <- at;
        seq
    | Some p -> perturbed_key t p at seq
  in
  Eheap.push t.msgq ~at:t.key ~seq:key id;
  t.live_events <- t.live_events + 1;
  note_depth t

let schedule t ~delay fn =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_v t (t.now.v +. delay) fn

(* Cancelled events stay in their queue as tombstones until they surface at
   the top — except that create-then-cancel churn (RPC timeouts are
   exactly this) could then grow the heap without bound. When more than
   half the heap is dead we compact it in place: O(n), amortised against
   the cancels that built the garbage up. (Ring tombstones drain at the
   current instant by themselves.) *)
let cancel t ev =
  if not (ev_dead ev) then begin
    ev_mark_dead ev;
    (* a tombstone keeps nothing its action captured: an RPC timer's
       closure would otherwise hold its caller's state until the
       tombstone surfaces, a full timeout later *)
    ev.fn <- noop;
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

(* The minimum [at] of a heap, read through its key array:
   [Eheap.min_at] returns a float across a module boundary, which boxes
   it on every call of the run loops. *)
let[@inline] min_key h = if Eheap.size h = 0 then infinity else Array.unsafe_get (Eheap.keys h) 0

let[@inline] heap_min t = min_key t.queue
let[@inline] msg_min t = min_key t.msgq

(* Where the next entry in exact [(at, seq)] order waits: one of the
   three queues, or none. The two heaps compare lexicographically. A ring
   entry is at [now] with its own seq: a heap event at [now] precedes it
   (it was queued before the clock reached [now], so its seq is smaller),
   while a slot at [now] may have been posted before or after it, so the
   two compare by seq. *)
let src_none = 0
let src_ring = 1
let src_heap = 2
let src_msg = 3

let next_src t =
  let ha = heap_min t and ma = msg_min t in
  let msg_first =
    ma < ha
    || ma = ha && ma <> infinity
       && Array.unsafe_get (Eheap.seqs t.msgq) 0 < Array.unsafe_get (Eheap.seqs t.queue) 0
  in
  if t.ring_len > 0 then
    if msg_first then
      if ma = t.now.v && Array.unsafe_get (Eheap.seqs t.msgq) 0 < ev_seq t.ring.(t.ring_head)
      then src_msg
      else src_ring
    else if ha = t.now.v then src_heap
    else src_ring
  else if msg_first then src_msg
  else if ha <> infinity then src_heap
  else src_none

(* The bookkeeping of every fired entry, event or slot. *)
let[@inline] count_fired t =
  t.live_events <- t.live_events - 1;
  t.events_fired <- t.events_fired + 1;
  if !Obs.enabled then begin
    Obs.incr c_events;
    (* an event scheduled untraced carries no context and runs under
       none; a traced one restores its own in {!traced_fn}, a traced
       slot in its consumer *)
    Obs.set_current Obs.null_ctx
  end
  else if !Obs.metrics_enabled then Obs.incr c_events

(* Execute the next live entry, skipping tombstones. A heap event or a
   slot carries the clock forward via the key of the pop that surfaced
   it; ring events are at the current instant. *)
let rec step t =
  let src = next_src t in
  if src = src_msg then begin
    let id = Eheap.pop_or t.msgq (-1) in
    t.now.v <- t.mpopped.v;
    count_fired t;
    t.consumer id;
    true
  end
  else if src = src_none then false
  else begin
    let ev = if src = src_ring then ring_pop t else Eheap.pop_or t.queue dummy_event in
    if ev_dead ev then begin
      if src = src_ring then t.ring_dead <- t.ring_dead - 1 else t.heap_dead <- t.heap_dead - 1;
      step t
    end
    else begin
      if src = src_heap then t.now.v <- t.popped.v;
      ev_mark_fired ev (* fired: a late cancel must not touch the accounting *);
      count_fired t;
      ev.fn ();
      true
    end
  end

type run_stats = { events_fired : int; final_clock : float; max_queue_depth : int }

let stats (t : t) =
  { events_fired = t.events_fired; final_clock = t.now.v; max_queue_depth = t.max_queue_depth }

(* Pop cancelled tombstones off the *global* queue head so the limit check
   in [run ~until] reflects the next *live* entry. Without this, a dead
   head with [at <= limit] passes the limit check and [step] — which skips
   tombstones unconditionally — would fire the next live entry even past
   the limit. The drain follows exact (at, seq) order — same selection
   rule as [step] — and stops at the first live entry (a slot is always
   live), so tombstones sitting behind a live entry are removed no
   earlier than the single-heap engine removed them (the queue-depth
   gauge sees identical values). *)
let rec drain_dead_head t =
  let src = next_src t in
  if src = src_ring then begin
    if ev_dead t.ring.(t.ring_head) then begin
      ignore (ring_pop t);
      t.ring_dead <- t.ring_dead - 1;
      drain_dead_head t
    end
  end
  else if src = src_heap then begin
    if ev_dead (Eheap.top_or t.queue dummy_event) then begin
      ignore (Eheap.pop_or t.queue dummy_event);
      t.heap_dead <- t.heap_dead - 1;
      drain_dead_head t
    end
  end

(* The [at] of the next entry once [drain_dead_head] ran: a live ring
   entry is at the current instant by construction. *)
let[@inline] head_at t =
  if t.ring_len > 0 then t.now.v
  else
    let ha = heap_min t and ma = msg_min t in
    if ma < ha then ma else ha

let run ?until t =
  (match until with
  | None -> while step t do () done
  | Some limit ->
      let continue_run = ref true in
      while !continue_run do
        drain_dead_head t;
        if head_at t > limit then continue_run := false else ignore (step t)
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
  head_at t

let run_to t ~stop =
  let continue_run = ref true in
  while !continue_run do
    drain_dead_head t;
    if head_at t >= stop then continue_run := false else ignore (step t)
  done

(* {2 Processes} *)

let alive p = p.state <> Dead

let crashed t = t.crashed_list

let check_crashed t =
  match t.crashed_list with
  | [] -> ()
  | (p, e) :: _ ->
      failwith (Printf.sprintf "process %s crashed: %s" (proc_name p) (Printexc.to_string e))

(* {3 Groups} *)

let group () = { g_head = null_proc }

let leave p =
  let g = p.grp in
  if g != no_group then begin
    let prev = p.g_prev and next = p.g_next in
    if prev == null_proc then g.g_head <- next else prev.g_next <- next;
    if next != null_proc then next.g_prev <- prev;
    p.grp <- no_group;
    p.g_prev <- null_proc;
    p.g_next <- null_proc
  end

let join g p =
  if p.state <> Dead then begin
    leave p;
    let h = g.g_head in
    p.grp <- g;
    p.g_next <- h;
    if h != null_proc then h.g_prev <- p;
    g.g_head <- p
  end

let group_size g =
  let rec count p n = if p == null_proc then n else count p.g_next (n + 1) in
  count g.g_head 0

let finish p =
  if p.state <> Dead then begin
    p.state <- Dead;
    p.parked <- not_parked;
    leave p
  end

(* Run [k] as process [p]: [p] becomes current and, while tracing is on,
   its own trace context [ctx] is restored (the event that resumes it
   would otherwise run under its scheduler's, e.g. a reply delivery's,
   and misattribute everything [p] does next). A killed process is
   discontinued with [Process_killed] whatever [r] holds. *)
let run_k p ctx (k : ('a, unit) continuation) (r : ('a, exn) result) =
  let t = p.eng in
  let saved = t.current in
  t.current <- p;
  if !Obs.enabled then Obs.set_current ctx;
  match
    if p.killed then discontinue k Process_killed
    else match r with Ok v -> continue k v | Error e -> discontinue k e
  with
  | () -> t.current <- saved
  | exception e ->
      t.current <- saved;
      raise e

(* {3 Wakers}

   A waker is the whole state of one suspension, and every party to it —
   the resolver, the kill path, the timer, the resume event — reads that
   one record. [w_res] is both the settled flag and the result: [unsettled]
   until the first [wake], timeout or kill stores what the resume event
   delivers. Settling cancels the waker's timer, so a timer never
   keeps the simulation alive (or its closure reachable) past the wait. *)
exception Unsettled
exception Timed_out

type 'a waker = {
  w_proc : proc;
  mutable w_k : ('a, unit) continuation; (* [null_k] until parked, and after *)
  w_ctx : Obs.ctx;
  mutable w_res : ('a, exn) result;
  mutable w_timer : event; (* [dummy_event] when none *)
}

let unsettled = Error Unsettled
let killed_res = Error Process_killed
let timed_out = Error Timed_out
let ok_unit = Ok ()

let waker t =
  let p = t.current in
  if p == null_proc then invalid_arg "Engine.waker: not inside a process of this engine";
  let w =
    {
      w_proc = p;
      w_k = null_k ();
      w_ctx = (if !Obs.enabled then Obs.current () else Obs.null_ctx);
      w_res = unsettled;
      w_timer = dummy_event;
    }
  in
  (* parked from here on, not from [await]: a kill issued while the
     process is still registering the waker must interrupt it *)
  p.parked <- Obj.repr w;
  w

let pending w = w.w_res == unsettled
let waiting w = w.w_res == unsettled && not w.w_proc.killed
let woken w = match w.w_res with Ok v -> Some v | Error _ -> None

let settle w r =
  w.w_res <- r;
  let p = w.w_proc in
  if p.parked == Obj.repr w then p.parked <- not_parked;
  let ev = w.w_timer in
  if ev != dummy_event then begin
    w.w_timer <- dummy_event;
    cancel p.eng ev
  end

let resume w =
  let p = w.w_proc and k = w.w_k in
  w.w_k <- null_k ();
  if p.state <> Dead && k != null_k () then run_k p w.w_ctx k w.w_res

let schedule_resume w = ignore (schedule w.w_proc.eng ~delay:0.0 (fun () -> resume w))

let wake w v =
  if w.w_res == unsettled then begin
    settle w (Ok v);
    schedule_resume w
  end

let time_out w =
  if w.w_res == unsettled then begin
    settle w timed_out;
    schedule_resume w
  end

let timeout w d =
  let t = w.w_proc.eng in
  let ev = schedule t ~delay:d (fun () -> time_out w) in
  if w.w_res == unsettled then w.w_timer <- ev else cancel t ev

(* Runs as the kill event of a process parked on [w]. *)
let kill_waker w =
  if w.w_res == unsettled then begin
    settle w killed_res;
    let k = w.w_k in
    w.w_k <- null_k ();
    if k != null_k () then run_k w.w_proc w.w_ctx k killed_res
  end

(* {3 Sleep}

   Event-for-event identical to a waker with a timer — one timer event
   now, one resume event when it fires, one event on kill — but with no
   per-sleep record: the timer and resume actions are built once per
   process on its first sleep and driven by [sl_state]. When tracing is
   off the fired timer record itself is resurrected (fresh seq, [fn]
   flipped to the resume action) as the same-instant resume event, so a
   steady-state sleep allocates only the timer record and the stored
   continuation. *)

let sleep_resume p =
  let sl = p.sleeper in
  sl.sl_state <- 0;
  let k = sl.sl_k in
  sl.sl_k <- null_k ();
  if p.state <> Dead then run_k p sl.sl_ctx k ok_unit

let sleep_timer p =
  let t = p.eng and sl = p.sleeper in
  p.parked <- not_parked;
  sl.sl_state <- 2;
  if (not !Obs.enabled) && t.perturb == None then begin
    (* resurrect the fired timer record as the resume event: this is
       exactly [schedule ~delay:0.0] — fresh seq, same-instant ring entry —
       minus the allocation (a record is resurrected only untraced, so
       there is no trace context to wrap in) *)
    let ev = sl.sl_ev in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    ev.info <- (seq lsl 3) lor 2;
    ev.fn <- sl.sl_resume_fn;
    ring_push t ev;
    t.live_events <- t.live_events + 1;
    note_depth t
  end
  else sl.sl_ev <- schedule t ~delay:0.0 sl.sl_resume_fn

(* Runs as the kill event of a sleeping process: only a still-pending
   timer needs acting on — once the timer fired ([sl_state = 2]) the
   resume event is already queued and will observe [killed]. *)
let sleep_kill p =
  let sl = p.sleeper in
  if sl.sl_state = 1 then begin
    sl.sl_state <- 0;
    cancel p.eng sl.sl_ev;
    p.parked <- not_parked;
    let k = sl.sl_k in
    sl.sl_k <- null_k ();
    run_k p sl.sl_ctx k killed_res
  end

let new_sleeper p =
  let sl =
    {
      sl_state = 0;
      sl_k = null_k ();
      sl_ctx = Obs.null_ctx;
      sl_ev = dummy_event;
      sl_timer_fn = (fun () -> sleep_timer p);
      sl_resume_fn = (fun () -> sleep_resume p);
    }
  in
  p.sleeper <- sl;
  sl

(* The delay travels through [t.sleep_arg] (set by the [Sleep] dispatch in
   [effc] just before this runs), not as a float parameter: without
   cross-module inlining a float argument is boxed at every call. *)
let handle_sleep t p (k : (unit, unit) continuation) =
  let d = t.sleep_arg.v in
  let sl = if p.sleeper == no_sleeper then new_sleeper p else p.sleeper in
  sl.sl_k <- k;
  sl.sl_ctx <- (if !Obs.enabled then Obs.current () else Obs.null_ctx);
  sl.sl_state <- 1;
  let ev = sl.sl_ev in
  if
    ev.info land 5 = 5 (* dead && popped: fired and fully dequeued *)
    && (not !Obs.enabled)
    && t.perturb == None
  then begin
    (* Recycle last round's record as this round's timer: the sleeper is
       the only holder of a fired record, so in the steady state one event
       record serves a proc for its whole life and a sleep allocates
       nothing but the stored continuation. Exactly [schedule ~delay:d]
       minus the allocation; a record is never recycled while tracing is
       on, so there is no trace wrapper to build. *)
    let d = if d < 0.0 then 0.0 else d in
    let at = t.now.v +. d in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    ev.fn <- sl.sl_timer_fn;
    if at = t.now.v then begin
      ev.info <- (seq lsl 3) lor 2;
      ring_push t ev
    end
    else begin
      ev.info <- seq lsl 3;
      t.key.v <- at;
      Eheap.push t.queue ~at:t.key ~seq ev
    end;
    t.live_events <- t.live_events + 1;
    note_depth t
  end
  else sl.sl_ev <- schedule t ~delay:d sl.sl_timer_fn;
  p.parked <- Obj.repr sl

let make_handler t : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> finish t.current);
    exnc =
      (fun e ->
        let p = t.current in
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
        | Await w ->
            t.await_arg <- w;
            let r : ((b, unit) continuation -> unit) option = t.eff_await in
            r
        | _ -> None);
  }

let create ?(seed = 42) () =
  let queue = Eheap.create ~dummy:dummy_event in
  let msgq = Eheap.create ~dummy:(-1) in
  let t =
    {
      now = { v = 0.0 };
      queue;
      popped = Eheap.popped_cell queue;
      key = { v = 0.0 };
      ring = [||];
      ring_head = 0;
      ring_len = 0;
      ring_dead = 0;
      msgq;
      mpopped = Eheap.popped_cell msgq;
      consumer = no_consumer;
      next_seq = 0;
      next_pid = 0;
      root_rng = Rng.create seed;
      perturb = None;
      current = null_proc;
      crashed_list = [];
      live_events = 0;
      heap_dead = 0;
      events_fired = 0;
      max_queue_depth = 0;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      eff_self = None;
      eff_sleep = None;
      eff_await = None;
      sleep_arg = { v = 0.0 };
      await_arg = not_parked;
    }
  in
  t.handler <- make_handler t;
  t.eff_self <- Some (fun (k : (proc, unit) continuation) -> continue k t.current);
  t.eff_sleep <- Some (fun (k : (unit, unit) continuation) -> handle_sleep t t.current k);
  t.eff_await <-
    Some
      (fun (k : (Obj.t, unit) continuation) ->
        (* the waker is already wired (and, if it settled while being
           registered, its resume event already queued): parking is
           storing the continuation *)
        let w : Obj.t waker = Obj.obj t.await_arg in
        t.await_arg <- not_parked;
        w.w_k <- k);
  (* The trace is stamped with virtual time: the most recently created
     engine on this domain owns the observability clock. *)
  Obs.set_clock t.now;
  t

let start p f =
  if p.state = Pending then
    if p.killed then finish p
    else begin
      p.state <- Active;
      let t = p.eng in
      let saved = t.current in
      t.current <- p;
      match match_with f () t.handler with
      | () -> t.current <- saved
      | exception e ->
          t.current <- saved;
          raise e
    end

let spawn ?name t f =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let p =
    {
      pid;
      pname = (match name with Some n -> n | None -> unnamed);
      eng = t;
      state = Pending;
      killed = false;
      parked = not_parked;
      sleeper = no_sleeper;
      grp = no_group;
      g_prev = null_proc;
      g_next = null_proc;
    }
  in
  Obs.incr c_spawns;
  if !Obs.enabled then
    (* attr key is proc_id, not pid: pid is the record's parent-span field *)
    Obs.event ~attrs:[ ("proc", proc_name p); ("proc_id", string_of_int pid) ] "engine.spawn";
  ignore (schedule t ~delay:0.0 (fun () -> start p f));
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
        (* the start event will notice too; whichever fires first ends it *)
        ignore (schedule t ~delay:0.0 (fun () -> if p.state = Pending then finish p))
      end
  | Active ->
      if not p.killed then begin
        p.killed <- true;
        note_kill p;
        let pk = p.parked in
        if pk != not_parked then begin
          p.parked <- not_parked;
          if pk == Obj.repr p.sleeper then ignore (schedule t ~delay:0.0 (fun () -> sleep_kill p))
          else begin
            let w : Obj.t waker = Obj.obj pk in
            ignore (schedule t ~delay:0.0 (fun () -> kill_waker w))
          end
        end
        else if t.current == p then
          (* self-kill while running: unwind immediately *)
          raise Process_killed
        (* otherwise a resume is already scheduled; it will observe
           [killed] and discontinue *)
      end

(* Kill every member, newest first, the calling process (if a member)
   last: self-kill raises and unwinds the caller. Each member leaves the
   group before it is killed, so its exit finds nothing to unlink. *)
let kill_group t g =
  let self = t.current in
  let rec go p self_member =
    if p == null_proc then self_member
    else begin
      let next = p.g_next in
      p.grp <- no_group;
      p.g_prev <- null_proc;
      p.g_next <- null_proc;
      if p == self then go next true
      else begin
        kill t p;
        go next self_member
      end
    end
  in
  let first = g.g_head in
  g.g_head <- null_proc;
  if go first false then kill t self

(* {2 Blocking operations} *)

let self () = perform Self
let engine () = (perform Self).eng
let await (w : 'a waker) : 'a = Obj.obj (perform (Await (Obj.repr w)))
let sleep d = perform (Sleep d)
