(* Conservative time-windowed parallel discrete-event engine.

   One big simulated deployment is split into [parts] partitions, each
   owning a full {!Engine} (its own event heap, same-instant ring, RNG
   stream and — when a plane is enabled — its own {!Obs} recording
   state). Synchronization is classic conservative PDES: with lookahead
   [L] = the minimum cross-partition one-way delay, every partition may
   execute freely inside the window [tmin, tmin + L) where [tmin] is the
   global minimum next-event time, because nothing a peer does inside
   the window can reach it earlier than [tmin + L]. Cross-partition
   traffic is posted into per-(src,dst) mailboxes and absorbed by the
   serial coordinator at the next window barrier, before any partition
   of the new window starts — by then the receiver's clock is still
   below the message's arrival time, so no partition ever receives an
   event in its past (checked, not assumed: absorption fails loudly on
   violation).

   Why conservative rather than optimistic (Time Warp): rollback would
   need checkpointing of arbitrary user state — fibers, closures, Obs
   buffers — which the simulation API deliberately does not constrain.
   Lookahead here is real and cheap ([Latency.min_rtt] / 2; 5 ms for the
   default transit-stub mix against sub-millisecond event spacing), so
   windows are fat and barriers rare.

   Determinism: the run is a pure function of (seed, parts). Window
   bounds derive from virtual time only; within a window each partition
   executes its events in exact sequential (at, seq) order; mailboxes
   are absorbed between windows, serially, in canonical
   (destination, source) order, acquiring fresh local seqs — so seq
   assignment of cross-partition events never depends on execution
   interleaving or worker count, and the merged traces, metrics and
   results are byte-identical whatever [domains] executed the
   partitions, 1 or 16. (Changing [parts] IS a different schedule, like
   changing a seed.)

   Execution rides on {!Dpool}: one barrier per window, partitions
   handed to worker domains via an atomic cursor. A domain executing
   partition [i] installs partition [i]'s recording state first, so
   everything recorded lands in per-partition buffers that are merged
   once, in partition order, when the run completes. *)

module Obs = Splay_obs.Obs

(* Same id stride as {!Pool}: partition [i]'s span/trace ids start at
   [(i+1) lsl 24]. Do not nest a traced [Par] run inside a [Pool] trial:
   the id bases would collide in the merged trace. *)
let ids_stride = 1 lsl 24

let noop () = ()

(* Per-(src,dst) mailbox. Two parallel arrays keep the floats unboxed.
   Race-free by construction: inside a window only the one domain
   currently executing partition [src] appends (the Dpool cursor hands
   each partition to exactly one domain), and drains happen only in the
   serial coordinator between windows — appends and drains never
   overlap. The Dpool batch boundaries provide the happens-before edges
   both ways (posts visible to the coordinator's drain, drained state
   visible to the next window's posters), so no atomics are needed. *)
type mail = {
  mutable m_at : float array;
  mutable m_fn : (unit -> unit) array;
  mutable m_len : int;
}

let new_mail () = { m_at = [||]; m_fn = [||]; m_len = 0 }

let mail_grow m =
  let cap = Array.length m.m_at in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let at = Array.make ncap 0.0 and fn = Array.make ncap noop in
  Array.blit m.m_at 0 at 0 m.m_len;
  Array.blit m.m_fn 0 fn 0 m.m_len;
  m.m_at <- at;
  m.m_fn <- fn

type t = {
  parts : int;
  lookahead : float;
  engines : Engine.t array;
  states : Obs.rec_state array; (* empty = no plane was enabled at create *)
  mail : mail array; (* parts * parts, row-major [src * parts + dst] *)
  mutable ran : bool;
}

type run_info = { windows : int; events_fired : int }

let create ?(seed = 42) ~lookahead ~parts () =
  if parts < 1 then invalid_arg "Par.create: parts must be >= 1";
  if not (lookahead > 0.0) then invalid_arg "Par.create: lookahead must be positive";
  let planes = !Obs.enabled || !Obs.metrics_enabled in
  let states =
    if planes then Array.init parts (fun i -> Obs.state_create ~ids_base:((i + 1) * ids_stride) ())
    else [||]
  in
  let mk_engine i =
    (* distinct, seed-derived RNG stream per partition; parts = 1
       degenerates to exactly the sequential engine's stream *)
    Engine.create ~seed:(seed + (1_000_003 * i)) ()
  in
  let engines =
    Array.init parts (fun i ->
        if planes then begin
          (* created under its own state so [Engine.create]'s
             [Obs.set_clock] binds this partition's clock to it *)
          let prev = Obs.state_install states.(i) in
          let e = mk_engine i in
          ignore (Obs.state_install prev);
          e
        end
        else mk_engine i)
  in
  {
    parts;
    lookahead;
    engines;
    states;
    mail = Array.init (parts * parts) (fun _ -> new_mail ());
    ran = false;
  }

let lookahead t = t.lookahead
let engine t i = t.engines.(i)

let with_part t i f =
  if Array.length t.states = 0 then f ()
  else begin
    let prev = Obs.state_install t.states.(i) in
    Fun.protect ~finally:(fun () -> ignore (Obs.state_install prev)) f
  end

let post t ~src ~dst ~at fn =
  let m = t.mail.((src * t.parts) + dst) in
  if m.m_len = Array.length m.m_at then mail_grow m;
  m.m_at.(m.m_len) <- at;
  m.m_fn.(m.m_len) <- fn;
  m.m_len <- m.m_len + 1

(* Drain every mailbox addressed to partition [i], oldest source first —
   the canonical order that makes same-instant seq assignment (and with
   it the whole run) independent of domain count. Called only from the
   serial coordinator, between windows, under partition [i]'s recording
   state (scheduling touches the queue-depth gauge and captures the
   partition's current trace ctx). *)
let absorb_mail t i =
  let eng = t.engines.(i) in
  let now = Engine.now eng in
  let due = { Engine.v = 0.0 } in
  for src = 0 to t.parts - 1 do
    let m = t.mail.((src * t.parts) + i) in
    if m.m_len > 0 then begin
      for k = 0 to m.m_len - 1 do
        let at = m.m_at.(k) in
        if at < now then
          failwith
            (Printf.sprintf "Par: cross-partition event at %g in partition %d's past (now %g)" at i
               now);
        due.v <- at;
        ignore (Engine.schedule_at eng ~at:due m.m_fn.(k));
        m.m_fn.(k) <- noop (* release the closure *)
      done;
      m.m_len <- 0
    end
  done

let run ?domains t =
  if t.ran then invalid_arg "Par.run: a Par.t is single-shot; create a fresh one";
  t.ran <- true;
  Array.iter
    (fun e ->
      if Engine.perturbation_active e then
        invalid_arg
          "Par.run: engine perturbation (splay check nemesis mode) is not supported with domains \
           > 1; run the nemesis sequentially")
    t.engines;
  let p = t.parts in
  let requested = match domains with None -> p | Some d -> if d < 1 then 1 else d in
  let workers = Dpool.effective (min requested p) in
  let planes = Array.length t.states > 0 in
  let windows = ref 0 in
  let continue_run = ref true in
  while !continue_run do
    (* Serial coordinator, between Dpool barriers — no worker domain is
       running, so this is the one place mailboxes may be touched. Drain
       everything posted during the previous window first: absorption
       timing is then a fixed point of the protocol (never mid-window),
       identical whether the partitions below run on 1 domain or 16. *)
    for i = 0 to p - 1 do
      with_part t i (fun () -> absorb_mail t i)
    done;
    (* With all posts absorbed, the global minimum next-event time is
       just the minimum over the partition queues. *)
    let tmin = ref infinity in
    for i = 0 to p - 1 do
      let a = Engine.next_at t.engines.(i) in
      if a < !tmin then tmin := a
    done;
    if !tmin = infinity then continue_run := false
    else begin
      incr windows;
      let horizon = !tmin +. t.lookahead in
      let exec i =
        if planes then begin
          let prev = Obs.state_install t.states.(i) in
          Fun.protect
            ~finally:(fun () -> ignore (Obs.state_install prev))
            (fun () -> Engine.run_to t.engines.(i) ~stop:horizon)
        end
        else Engine.run_to t.engines.(i) ~stop:horizon
      in
      if workers <= 1 then
        for i = 0 to p - 1 do
          exec i
        done
      else begin
        let next = Atomic.make 0 in
        Dpool.run ~workers (fun () ->
            let more = ref true in
            while !more do
              let i = Atomic.fetch_and_add next 1 in
              if i < p then exec i else more := false
            done)
      end
    end
  done;
  (* one merge, in partition order: byte-identical whatever [domains] was *)
  if planes then Array.iter (fun s -> Obs.absorb (Obs.state_snapshot s)) t.states;
  let events = Array.fold_left (fun acc e -> acc + (Engine.stats e).Engine.events_fired) 0 t.engines in
  { windows = !windows; events_fired = events }
