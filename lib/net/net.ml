module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Pages = Splay_sim.Pages
module Obs = Splay_obs.Obs

(* Observability sites; [net.link_wait] is the time a message spends
   queued behind earlier transfers in the sender's uplink and the
   receiver's downlink — the signal that a link is saturating. *)
let c_msgs = Obs.counter "net.msgs_sent"
let c_obs_bytes = Obs.counter "net.bytes_sent"
let c_drops = Obs.counter "net.dropped"
let h_link_wait = Obs.histogram "net.link_wait"

(* The engine's own site: a message in flight is an engine event, and a
   traced one records its queueing wait there like any traced event. *)
let h_event_wait = Obs.histogram "engine.event_wait"

type payload = ..

(* What a vacant slot's payload column holds, so a delivered payload is
   not kept reachable by its slot. *)
type payload += Vacant

type handler = src:Addr.t -> payload -> unit

module AddrTbl = Hashtbl.Make (struct
  type t = Addr.t

  let equal = Addr.equal
  let hash = Addr.hash
end)

(* Cross-partition escape hatch for the parallel engine: when a remote
   hook is installed and the destination host is not local, the send
   path stops after the sender-side half of the store-and-forward model
   (uplink queue + propagation) and hands the message to [r_route] —
   Fabric posts it into a Par mailbox, and the receiving partition
   finishes the job with [deliver_remote] (downlink queue + processing +
   liveness checks against ITS copy of the host state). *)
type remote = {
  r_local : Addr.host_id -> bool;
  r_route :
    src:Addr.t ->
    dst:Addr.t ->
    size:int ->
    arrival:float ->
    up_wait:float ->
    ctx:Obs.ctx ->
    payload ->
    unit;
}

type t = {
  eng : Engine.t;
  tb : Testbed.t;
  links : Testbed.links; (* [tb]'s per-host columns, which the send path reads and writes *)
  handlers : handler AddrTbl.t;
  net_rng : Rng.t;
  mutable loss : float;
  mutable extra_delay : float;
  mutable partition : (Addr.host_id -> int) option;
  mutable remote : remote option;
  mutable n_sent : int;
  mutable n_bytes : int;
  mutable n_dropped : int;
  due : Engine.fcell;
      (* scratch cell of the send path: the propagation delay from
         [Latency.delay_to], then the due time for [Engine.post] —
         both travel unboxed *)
  near_a : Engine.fcell;
  near_b : Engine.fcell; (* scratch cells of [closer]'s two base delays *)
  (* Messages in flight, as columns indexed by the slot ids queued in the
     engine's message queue ({!Engine.post}); [m_free] is the stack of
     vacant ids. A traced send also fills [m_ctx] (the trace context the
     delivery runs under) and [m_sched] (the instant it was queued, [nan]
     for a slot queued untraced); both stay empty until the first traced
     send. The columns are paged ({!Pages}): past one page they grow by
     a page and never copy a slot. *)
  m_src : Addr.t Pages.t;
  m_dst : Addr.t Pages.t;
  m_pay : payload Pages.t;
  m_ctx : Obs.ctx Pages.t;
  m_sched : float Pages.t;
  m_free : int Pages.t;
  mutable m_nfree : int;
}

let no_addr = Addr.make (-1) (-1)

(* Column reads and writes, typed here: a call into {!Pages} would box
   [m_sched]'s floats and cost a call per slot field. *)
let[@inline] get (s : 'a array array) i =
  Array.unsafe_get (Array.unsafe_get s (i lsr Pages.bits)) (i land Pages.mask)

let[@inline] set (s : 'a array array) i x =
  Array.unsafe_set (Array.unsafe_get s (i lsr Pages.bits)) (i land Pages.mask) x

let[@inline] fget (s : float array array) i =
  Array.unsafe_get (Array.unsafe_get s (i lsr Pages.bits)) (i land Pages.mask)

let[@inline] fset (s : float array array) i (x : float) =
  Array.unsafe_set (Array.unsafe_get s (i lsr Pages.bits)) (i land Pages.mask) x

let[@inline] iget (s : int array array) i =
  Array.unsafe_get (Array.unsafe_get s (i lsr Pages.bits)) (i land Pages.mask)

let[@inline] iset (s : int array array) i (x : int) =
  Array.unsafe_set (Array.unsafe_get s (i lsr Pages.bits)) (i land Pages.mask) x

let first = 64

let grow_traced t =
  Pages.grow t.m_ctx ~first;
  Pages.grow t.m_sched ~first

(* Grow the columns one step; the new ids go on the free stack lowest on
   top. The stack is empty here, so only its new slots are written. *)
let grow_slots t =
  let cap = t.m_pay.cap in
  Pages.grow t.m_src ~first;
  Pages.grow t.m_dst ~first;
  Pages.grow t.m_pay ~first;
  Pages.grow t.m_free ~first;
  if t.m_sched.cap > 0 then grow_traced t;
  let ncap = t.m_pay.cap in
  let free = t.m_free.spine in
  for i = 0 to ncap - cap - 1 do
    iset free i (ncap - 1 - i)
  done;
  t.m_nfree <- ncap - cap

(* With nothing in flight, a net holds no column: a burst's high-water
   mark is not kept for the rest of the run. The first 64 slots stay, so
   a lone request and its reply do not regrow them every time. *)
let vacate t =
  Pages.release t.m_src;
  Pages.release t.m_dst;
  Pages.release t.m_pay;
  Pages.release t.m_ctx;
  Pages.release t.m_sched;
  Pages.release t.m_free;
  t.m_nfree <- 0

(* Queue a message due at [t.due.v]. [traced] is [!Obs.enabled] at the
   send; [ctx] is the context its delivery runs under. *)
let enqueue t ~traced ~ctx ~src ~dst payload =
  if t.m_nfree = 0 then grow_slots t;
  let n = t.m_nfree - 1 in
  t.m_nfree <- n;
  let id = iget t.m_free.spine n in
  set t.m_src.spine id src;
  set t.m_dst.spine id dst;
  set t.m_pay.spine id payload;
  if traced then begin
    while t.m_sched.cap < t.m_pay.cap do
      grow_traced t
    done;
    set t.m_ctx.spine id ctx;
    fset t.m_sched.spine id (Engine.clock t.eng).v
  end;
  Engine.post t.eng ~at:t.due id

(* Hoisted out of [send] so a dropped (or delivered-then-dropped) message
   costs a call, not a fresh closure per send. *)
let count_drop t =
  t.n_dropped <- t.n_dropped + 1;
  Obs.incr c_drops

(* The engine hands a due slot back here. The slot is vacated before the
   handler runs, so a send from the handler may reuse it. When traced,
   the sender's trace context rides in the slot (the wire-level
   counterpart of the RPC envelope's ctx field): delivery runs under it,
   so receiver-side spans join the sender's causal trace for any payload,
   not just RPC. Liveness is read at delivery, then the bound handler
   runs. *)
let fire t id =
  let src = get t.m_src.spine id
  and dst = get t.m_dst.spine id
  and payload = get t.m_pay.spine id in
  set t.m_pay.spine id Vacant;
  if t.m_sched.cap > 0 then begin
    let sched = fget t.m_sched.spine id in
    if sched = sched (* queued traced *) then begin
      let ctx = get t.m_ctx.spine id in
      fset t.m_sched.spine id nan;
      set t.m_ctx.spine id Obs.null_ctx;
      if !Obs.enabled then begin
        Obs.observe h_event_wait ((Engine.clock t.eng).v -. sched);
        Obs.set_current ctx
      end
    end
  end;
  iset t.m_free.spine t.m_nfree id;
  t.m_nfree <- t.m_nfree + 1;
  if t.m_nfree = t.m_pay.cap && t.m_nfree > first then vacate t;
  if Bytes.unsafe_get t.links.Testbed.up dst.Addr.host = '\000' then count_drop t
  else
    match AddrTbl.find_opt t.handlers dst with
    | None -> count_drop t
    | Some h -> h ~src payload

let create eng tb =
  let t =
    {
      eng;
      tb;
      links = Testbed.links tb;
      handlers = AddrTbl.create 1024;
      net_rng = Rng.split (Testbed.rng tb);
      loss = 0.0;
      extra_delay = 0.0;
      partition = None;
      remote = None;
      n_sent = 0;
      n_bytes = 0;
      n_dropped = 0;
      due = { v = 0.0 };
      near_a = { v = 0.0 };
      near_b = { v = 0.0 };
      m_src = Pages.create no_addr;
      m_dst = Pages.create no_addr;
      m_pay = Pages.create Vacant;
      m_ctx = Pages.create Obs.null_ctx;
      m_sched = Pages.create nan;
      m_free = Pages.create 0;
      m_nfree = 0;
    }
  in
  Engine.set_consumer eng (fire t);
  t

let engine t = t.eng
let testbed t = t.tb

let bind t addr handler =
  if AddrTbl.mem t.handlers addr then
    invalid_arg (Printf.sprintf "Net.bind: %s already bound" (Addr.to_string addr));
  AddrTbl.replace t.handlers addr handler

let unbind t addr = AddrTbl.remove t.handlers addr

let is_bound t addr = AddrTbl.mem t.handlers addr

let set_loss t p = t.loss <- p

let set_extra_delay t d = t.extra_delay <- if d < 0.0 then 0.0 else d

let set_partition t f = t.partition <- Some f
let clear_partition t = t.partition <- None

let partitioned t a b =
  match t.partition with Some f -> f a <> f b | None -> false

let host_up t id = Testbed.host_up t.tb id

let base_rtt t a b = 2.0 *. Testbed.base_delay t.tb a b

(* Comparing the one-way delays orders the RTTs exactly: doubling a float
   is exact. *)
let closer t ~from a b =
  Testbed.base_delay_to t.tb t.near_a from a;
  Testbed.base_delay_to t.tb t.near_b from b;
  t.near_a.v < t.near_b.v

(* The receiver's half of a transfer, from the instant [arrival] its last
   byte reaches the destination's downlink: downlink queueing, processing
   cost, then the slot. A local send ends here, and so does a routed one
   on the destination's net ([deliver_remote]). Inlined, so its float
   arguments are not boxed. *)
let[@inline] receive t ~size ~src ~dst ~arrival ~up_wait ~ctx payload =
  let lk = t.links in
  let dh = dst.Addr.host in
  let busy = lk.Testbed.down_busy.(dh) in
  let i = dh land lk.Testbed.per_host in
  let tx_down = Float.of_int size /. Array.unsafe_get lk.Testbed.bw_down i in
  let start_down = Float.max arrival busy in
  Array.unsafe_set lk.Testbed.down_busy dh (start_down +. tx_down);
  let deliver_at = start_down +. tx_down +. Array.unsafe_get lk.Testbed.proc_cost i in
  (* delay-burst nemesis: a flat add-on past the bandwidth queues, so
     it slows delivery without occupying the links *)
  let deliver_at = if t.extra_delay > 0.0 then deliver_at +. t.extra_delay else deliver_at in
  let traced = !Obs.enabled in
  if traced || !Obs.metrics_enabled then
    Obs.observe h_link_wait (up_wait +. (start_down -. arrival));
  t.due.v <- deliver_at;
  enqueue t ~traced ~ctx ~src ~dst payload

(* Store-and-forward through sender uplink and receiver downlink queues:
   a transfer occupies the uplink for size/bw_up starting when the uplink
   frees, propagates, then occupies the downlink. This is what makes links
   saturate under bulk transfers (Fig. 13). Every per-host load is a
   column index and the propagation delay comes through a cell, so a
   send boxes no float on any testbed. *)
let send t ?(size = 256) ?loss ~src ~dst payload =
  t.n_sent <- t.n_sent + 1;
  t.n_bytes <- t.n_bytes + size;
  Obs.incr c_msgs;
  Obs.add c_obs_bytes size;
  let lk = t.links in
  let sh = src.Addr.host and dh = dst.Addr.host in
  if Bytes.get lk.Testbed.up sh = '\000' || partitioned t sh dh then count_drop t
  else begin
    let p = match loss with Some p -> p | None -> t.loss in
    if p > 0.0 && Rng.chance t.net_rng p then count_drop t
    else begin
      let now = (Engine.clock t.eng).v in
      let i = sh land lk.Testbed.per_host in
      let tx_up = Float.of_int size /. Array.unsafe_get lk.Testbed.bw_up i in
      let start_up = Float.max now (Array.unsafe_get lk.Testbed.up_busy sh) in
      Array.unsafe_set lk.Testbed.up_busy sh (start_up +. tx_up);
      Testbed.delay_to t.tb t.due sh dh;
      let arrival = start_up +. tx_up +. t.due.v in
      let ctx = if !Obs.enabled then Obs.current () else Obs.null_ctx in
      match t.remote with
      | Some r when not (r.r_local dh) ->
          (* sender-side half done; the destination's net applies its own
             downlink/processing model when the message reaches it *)
          r.r_route ~src ~dst ~size ~arrival ~up_wait:(start_up -. now) ~ctx payload
      | _ -> receive t ~size ~src ~dst ~arrival ~up_wait:(start_up -. now) ~ctx payload
    end
  end

let set_remote t ~local ~route = t.remote <- Some { r_local = local; r_route = route }

(* A routed message arrives now; its context is the sender's, not the one
   current here when the mailbox drains, so its delivery restores it. *)
let deliver_remote t ?(size = 256) ~src ~dst ~up_wait ~ctx payload =
  receive t ~size ~src ~dst ~arrival:(Engine.clock t.eng).v ~up_wait ~ctx payload

let messages_sent t = t.n_sent
let bytes_sent t = t.n_bytes
let messages_dropped t = t.n_dropped
