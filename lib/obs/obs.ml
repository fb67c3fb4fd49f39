module Report = Splay_stats.Report
module Hdr = Splay_stats.Hdr

(* The master switch stays a plain process-global flag: it is only ever
   toggled by a front end (Obs_flags) outside parallel sections, and
   worker domains are spawned after it is set, so every domain observes a
   stable value. Everything that *mutates* during a run — clock, trace
   buffer, span/trace counters, current context, metric cells — lives in
   domain-local storage so independent trials on different domains never
   share a mutable word. *)
let enabled = ref false

(* Second plane: windowed metrics rollups. Independent of [enabled] — a
   million-node run can keep bounded-memory percentile telemetry without
   paying for (or storing) a trace. Same toggling discipline as [enabled]:
   flip only outside parallel sections. *)
let metrics_enabled = ref false

(* Trace-buffer bound (records, 0 = unlimited). A config knob like the
   flags above, not per-domain state: every captured trial gets the same
   budget. Records past the cap are counted, not stored, so a traced
   100k-node run degrades gracefully instead of growing without bound. *)
let trace_cap = ref 0
let set_trace_cap n = trace_cap := max 0 n

(* Rollup window width in virtual seconds; applies to every domain. *)
let rollup_window = ref 10.0

(* {1 Trace context}

   The ambient (trace, span) position in the causal DAG. [cur] holds an
   immutable record so capturing it (the engine does, at every schedule and
   suspension) is a load — nothing is allocated on the disabled path. *)

type ctx = { tid : int; sid : int }

let null_ctx = { tid = 0; sid = 0 }

(* {1 Metric handles}

   A handle is an immutable name + slot index, created once at an
   instrumentation site (typically module initialisation on the main
   domain, but registration is mutex-guarded so a worker-domain first use
   is safe too). The mutable cell behind a handle is per-domain, found by
   indexing the domain state's cell array with the handle's id. *)

type kind = Counter | Gauge | Hist

type handle = { h_id : int; h_kind : kind; h_metric : string }
type counter = handle
type gauge = handle
type histogram = handle

let reg_mu = Mutex.create ()
let reg_by_name : (string, handle) Hashtbl.t = Hashtbl.create 64
let reg_all : handle array ref = ref [||]

let register kind name =
  let key = (match kind with Counter -> "c:" | Gauge -> "g:" | Hist -> "h:") ^ name in
  Mutex.protect reg_mu (fun () ->
      match Hashtbl.find_opt reg_by_name key with
      | Some h -> h
      | None ->
          let h = { h_id = Array.length !reg_all; h_kind = kind; h_metric = name } in
          Hashtbl.replace reg_by_name key h;
          reg_all := Array.append !reg_all [| h |];
          h)

let registered () = Mutex.protect reg_mu (fun () -> !reg_all)

(* Scalar float aggregates (in both the cumulative cells and the window
   cells below) live in a flat float array: a mutable float field in a
   mixed int/float record boxes on every store, and [observe] /
   [wobserve_at] run once per simulated message at million-node scale —
   unboxed slots keep the metrics fast path allocation-free. *)
let f_sum = 0

let f_min = 1
let f_max = 2 (* histogram max / gauge high-water *)
let f_last = 3 (* gauge last value *)

type cell = {
  mutable cl_n : int; (* counter value / histogram count *)
  cf : float array; (* sum / min / max / last, unboxed *)
}

let cl_sum c = c.cf.(f_sum)
let cl_min c = c.cf.(f_min)
let cl_max c = c.cf.(f_max)
let cl_last c = c.cf.(f_last)
let fresh_cell () = { cl_n = 0; cf = [| 0.0; infinity; neg_infinity; 0.0 |] }

let blank_cell c =
  c.cl_n <- 0;
  c.cf.(f_sum) <- 0.0;
  c.cf.(f_min) <- infinity;
  c.cf.(f_max) <- neg_infinity;
  c.cf.(f_last) <- 0.0

(* {1 Rollup state}

   A window cell is one metric's aggregate over one virtual-time window:
   count (counter value / histogram count), sum/min/max, gauge last, and
   the {!Hdr} log-bucket table, whose slots are allocated on the first
   sample, so counters and gauges never pay for them. The ring holds the
   [ring_width] most recent windows; advancing past a window renders its
   touched cells to the domain's rollup buffer (one JSON line per metric)
   and recycles the slot. Memory is therefore O(metrics × ring_width +
   rendered rows), independent of run length only in the cell tables —
   the rendered rows grow one line per touched metric per window, which
   at a 10-second window is ~5 orders of magnitude lighter than a
   trace. *)

type wcell = {
  mutable w_n : int;
  wf : float array; (* sum / min / max / last, unboxed *)
  mutable w_gauge : bool; (* gauge touched this window *)
  w_hist : Hdr.t; (* histogram samples; empty for counters and gauges *)
}

let w_sum w = w.wf.(f_sum)
let w_min w = w.wf.(f_min)
let w_max w = w.wf.(f_max)
let w_last w = w.wf.(f_last)
let fresh_wcell () = { w_n = 0; wf = [| 0.0; infinity; neg_infinity; 0.0 |]; w_gauge = false; w_hist = Hdr.create () }

let blank_wcell w =
  w.w_n <- 0;
  w.wf.(f_sum) <- 0.0;
  w.wf.(f_min) <- infinity;
  w.wf.(f_max) <- neg_infinity;
  w.wf.(f_last) <- 0.0;
  w.w_gauge <- false;
  Hdr.clear w.w_hist

(* [i] is [Hdr.index v], computed once by callers feeding the same
   sample to both the window and the cumulative cell. *)
let wobserve_at w v i =
  w.w_n <- w.w_n + 1;
  let wf = w.wf in
  wf.(f_sum) <- wf.(f_sum) +. v;
  if v < wf.(f_min) then wf.(f_min) <- v;
  if v > wf.(f_max) then wf.(f_max) <- v;
  Hdr.add_index w.w_hist i

let ring_width = 4

type ru = {
  ru_mbuf : Buffer.t; (* rendered rows of windows already evicted *)
  ru_slots : wcell array array; (* ring_width slots, each indexed by handle id *)
  ru_wids : int array; (* window id held by each slot, -1 = empty *)
  mutable ru_cur : int; (* newest window id, -1 before the first sample *)
  mutable ru_cum : wcell array; (* run-cumulative histogram buckets, by handle id *)
}

(* {1 Domain-local state}

   One record per domain holding everything a recording site touches.
   Trials running on different domains each get their own; the pool
   captures a trial's state and merges it back in trial order
   ({!capture} / {!absorb}), keeping output independent of how trials
   were spread over domains. *)

type state = {
  mutable clock : unit -> float;
  buf : Buffer.t;
  mutable next_span : int;
  mutable next_trace : int;
  mutable spans_started : int;
  mutable cur : ctx;
  mutable cells : cell array;
  mutable ru : ru option; (* rollup plane, allocated on first metrics sample *)
  mutable trace_records : int; (* trace records written (cap accounting) *)
  mutable trace_dropped : int; (* trace records refused past the cap *)
}

let new_state () =
  {
    clock = (fun () -> 0.0);
    buf = Buffer.create 4096;
    next_span = 1;
    next_trace = 1;
    spans_started = 0;
    cur = null_ctx;
    cells = [||];
    ru = None;
    trace_records = 0;
    trace_dropped = 0;
  }

let dls : state Domain.DLS.key = Domain.DLS.new_key new_state
let st () = Domain.DLS.get dls

let cell_of s (h : handle) =
  (if h.h_id >= Array.length s.cells then
     let have = Array.length s.cells in
     let total = max (Array.length (registered ())) (h.h_id + 1) in
     s.cells <-
       Array.init total (fun i -> if i < have then s.cells.(i) else fresh_cell ()));
  s.cells.(h.h_id)

let set_clock f = (st ()).clock <- f
let now () = (st ()).clock ()

let current () = (st ()).cur
let set_current c = (st ()).cur <- c

let with_ctx c f =
  let s = st () in
  let saved = s.cur in
  s.cur <- c;
  Fun.protect ~finally:(fun () -> s.cur <- saved) f

(* A span remembers its own context (for envelopes) and the context that
   was current when it started (restored on finish, so a finished span
   stops labelling subsequent work — even when start and finish happen in
   different engine events, as with RPC call spans). *)
type span = { sp_ctx : ctx; sp_prev : ctx }

let null_span = { sp_ctx = null_ctx; sp_prev = null_ctx }
let span_ctx s = s.sp_ctx

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_attrs b attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      add_json_string b k;
      Buffer.add_char b ':';
      add_json_string b v)
    attrs

(* All times are virtual seconds; fixed-point rendering keeps the trace
   stable across printf implementations.

   The emitter runs once per span start/finish/event — the hottest write
   in a traced run — so the common case avoids printf entirely and
   produces exactly the bytes [%.6f] would. A finite positive double is
   m * 2^(ex-53) with m a 53-bit integer (frexp), so

     v * 10^6  =  m * 15625 / 2^(47-ex)

   exactly. The product m * 15625 needs 67 bits and is carried in two
   32-bit limbs; the shift rounds to nearest, ties to even, which is what
   the libc formatter does with the exact binary value. Anything a
   simulated clock never produces — negative (or -0.0), non-finite, v >=
   1e12 (where the shift count would leave the two-limb range), or
   0 < v < 1e-6 — falls back to printf. *)

let micros_of_time v =
  (* precondition: 1e-6 <= v < 1e12; then 7 <= s <= 66 *)
  let f, ex = Float.frexp v in
  let m = int_of_float (Float.ldexp f 53) in
  let s = 47 - ex in
  let mlo = m land 0xFFFFFFFF and mhi = m lsr 32 in
  let plo = mlo * 15625 and phi = mhi * 15625 in
  (* m * 15625 = hi * 2^32 + lo *)
  let lo = plo land 0xFFFFFFFF and hi = phi + (plo lsr 32) in
  if s <= 32 then begin
    let q = (hi lsl (32 - s)) lor (lo lsr s) in
    let r = lo land ((1 lsl s) - 1) in
    let half = 1 lsl (s - 1) in
    if r > half || (r = half && q land 1 = 1) then q + 1 else q
  end
  else begin
    let sh = s - 32 in
    let q = hi lsr sh in
    let rhi = hi land ((1 lsl sh) - 1) in
    let half_hi = 1 lsl (sh - 1) in
    if rhi > half_hi || (rhi = half_hi && (lo > 0 || q land 1 = 1)) then q + 1
    else q
  end

let add_time_value b v =
  if v = 0.0 && not (Float.sign_bit v) then Buffer.add_string b "0.000000"
  else if v >= 1e-6 && v < 1e12 then begin
    let n = micros_of_time v in
    let ip = n / 1_000_000 and fp = n mod 1_000_000 in
    Buffer.add_string b (string_of_int ip);
    Buffer.add_char b '.';
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + fp / 100_000));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + fp / 10_000 mod 10));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + fp / 1_000 mod 10));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + fp / 100 mod 10));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + fp / 10 mod 10));
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + fp mod 10))
  end
  else Buffer.add_string b (Printf.sprintf "%.6f" v)

let add_time s b = add_time_value b (s.clock ())

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

(* {1 Rollup rendering}

   One JSON line per touched metric per window, written when a window is
   evicted from the ring (and for still-open windows at dump time):

     {"m":NAME,"kind":"counter","w":K,"t0":…,"t1":…,"n":N,"rate":R}
     {"m":NAME,"kind":"gauge","w":K,"t0":…,"t1":…,"last":…,"max":…}
     {"m":NAME,"kind":"hist","w":K,…,"n":…,"sum":…,"min":…,"max":…,
      "p50":…,"p90":…,"p99":…,"p999":…}

   [w] is the window index (floor(t / width)); cumulative whole-run rows
   use w = -1 and omit t0/t1. Metrics within a window are sorted by name
   (ties broken by registration id) so bytes never depend on hash or
   registration order. *)

let add_rollup_field b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":";
  Buffer.add_string b v

let add_row b ~name ~kind ~wid fields =
  Buffer.add_string b "{\"m\":";
  add_json_string b name;
  Buffer.add_string b ",\"kind\":\"";
  Buffer.add_string b kind;
  Buffer.add_string b "\",\"w\":";
  Buffer.add_string b (string_of_int wid);
  if wid >= 0 then begin
    let width = !rollup_window in
    Buffer.add_string b ",\"t0\":";
    add_time_value b (Float.of_int wid *. width);
    Buffer.add_string b ",\"t1\":";
    add_time_value b (Float.of_int (wid + 1) *. width)
  end;
  List.iter (fun (k, v) -> add_rollup_field b k v) fields;
  Buffer.add_string b "}\n"

let hist_fields ~with_quantiles (w : wcell) =
  let base =
    [
      ("n", string_of_int w.w_n);
      ("sum", fmt_float (w_sum w));
      ("min", fmt_float (w_min w));
      ("max", fmt_float (w_max w));
    ]
  in
  if not with_quantiles || Hdr.count w.w_hist = 0 then base
  else
    let q p = fmt_float (Hdr.quantile w.w_hist ~min:(w_min w) ~max:(w_max w) p) in
    base @ [ ("p50", q 0.5); ("p90", q 0.9); ("p99", q 0.99); ("p999", q 0.999) ]

let wcell_row b (h : handle) ~wid (w : wcell) =
  match h.h_kind with
  | Counter ->
      add_row b ~name:h.h_metric ~kind:"counter" ~wid
        [ ("n", string_of_int w.w_n); ("rate", fmt_float (Float.of_int w.w_n /. !rollup_window)) ]
  | Gauge ->
      add_row b ~name:h.h_metric ~kind:"gauge" ~wid
        [ ("last", fmt_float (w_last w)); ("max", fmt_float (w_max w)) ]
  | Hist -> add_row b ~name:h.h_metric ~kind:"hist" ~wid (hist_fields ~with_quantiles:true w)

let wcell_touched (h : handle) (w : wcell) =
  match h.h_kind with Counter | Hist -> w.w_n <> 0 | Gauge -> w.w_gauge

let render_slot b r slot =
  let wid = r.ru_wids.(slot) in
  let cells = r.ru_slots.(slot) in
  let all = registered () in
  let touched = ref [] in
  Array.iteri
    (fun i w -> if i < Array.length all && wcell_touched all.(i) w then touched := (all.(i), w) :: !touched)
    cells;
  let touched =
    List.sort
      (fun ((a : handle), _) (b, _) ->
        let c = String.compare a.h_metric b.h_metric in
        if c <> 0 then c else compare a.h_id b.h_id)
      !touched
  in
  List.iter (fun (h, w) -> wcell_row b h ~wid w) touched

let evict r slot =
  if r.ru_wids.(slot) >= 0 then begin
    render_slot r.ru_mbuf r slot;
    Array.iter blank_wcell r.ru_slots.(slot);
    r.ru_wids.(slot) <- -1
  end

(* Occupied slots in increasing window order — eviction and dump order. *)
let slots_in_order r =
  let occ = ref [] in
  for sl = 0 to ring_width - 1 do
    if r.ru_wids.(sl) >= 0 then occ := sl :: !occ
  done;
  List.sort (fun a b -> compare r.ru_wids.(a) r.ru_wids.(b)) !occ

(* Move the ring forward to [wid] (> ru_cur), evicting displaced windows
   oldest-first. The per-state clock is monotone, so this walks forward
   one window at a time in the steady state; an idle gap wider than the
   ring flushes everything in order and jumps. *)
let ru_advance r wid =
  if wid - r.ru_cur < ring_width && r.ru_cur >= 0 then
    for w = r.ru_cur + 1 to wid do
      evict r (w mod ring_width)
    done
  else List.iter (fun sl -> evict r sl) (slots_in_order r);
  r.ru_cur <- wid;
  r.ru_wids.(wid mod ring_width) <- wid

let get_ru s =
  match s.ru with
  | Some r -> r
  | None ->
      let r =
        {
          ru_mbuf = Buffer.create 1024;
          ru_slots = Array.init ring_width (fun _ -> [||]);
          ru_wids = Array.make ring_width (-1);
          ru_cur = -1;
          ru_cum = [||];
        }
      in
      s.ru <- Some r;
      r

let grow_wcells arr (h : handle) =
  let have = Array.length arr in
  let total = max (Array.length (registered ())) (h.h_id + 1) in
  Array.init total (fun i -> if i < have then arr.(i) else fresh_wcell ())

(* The current window's cell for [h], advancing the ring first. A clock
   reading behind the newest window (a fresh engine installed its clock on
   a state that already rolled forward) clamps to the newest window rather
   than corrupting an already-rendered one. *)
let ru_slot_cell s r (h : handle) =
  let wid0 = int_of_float (s.clock () /. !rollup_window) in
  let wid = if wid0 < r.ru_cur then r.ru_cur else wid0 in
  if wid > r.ru_cur then ru_advance r wid;
  let slot = r.ru_cur mod ring_width in
  if h.h_id >= Array.length r.ru_slots.(slot) then
    r.ru_slots.(slot) <- grow_wcells r.ru_slots.(slot) h;
  r.ru_slots.(slot).(h.h_id)

let ru_wcell s (h : handle) = ru_slot_cell s (get_ru s) h

let ru_cum_wcell r (h : handle) =
  if h.h_id >= Array.length r.ru_cum then r.ru_cum <- grow_wcells r.ru_cum h;
  r.ru_cum.(h.h_id)

(* Everything the rollup plane has produced: already-evicted rows, then
   the still-open ring windows in increasing order. Non-destructive. *)
let ru_rows r =
  let b = Buffer.create (Buffer.length r.ru_mbuf + 512) in
  Buffer.add_buffer b r.ru_mbuf;
  List.iter (fun sl -> render_slot b r sl) (slots_in_order r);
  Buffer.contents b

let span ?(attrs = []) ?parent name =
  if not !enabled then null_span
  else begin
    let s = st () in
    let parent = match parent with Some c -> c | None -> s.cur in
    let tid =
      if parent.tid <> 0 then parent.tid
      else begin
        let id = s.next_trace in
        s.next_trace <- id + 1;
        id
      end
    in
    let sid = s.next_span in
    s.next_span <- sid + 1;
    s.spans_started <- s.spans_started + 1;
    (* Past the cap the record is counted and skipped, but ids, counters
       and context advance exactly as before — the stored prefix stays
       byte-identical to an uncapped run. *)
    if !trace_cap > 0 && s.trace_records >= !trace_cap then
      s.trace_dropped <- s.trace_dropped + 1
    else begin
      s.trace_records <- s.trace_records + 1;
      let buf = s.buf in
      Buffer.add_string buf "{\"t\":";
      add_time s buf;
      Buffer.add_string buf ",\"ev\":\"B\",\"sid\":";
      Buffer.add_string buf (string_of_int sid);
      Buffer.add_string buf ",\"tid\":";
      Buffer.add_string buf (string_of_int tid);
      Buffer.add_string buf ",\"pid\":";
      Buffer.add_string buf (string_of_int parent.sid);
      Buffer.add_string buf ",\"name\":";
      add_json_string buf name;
      add_attrs buf attrs;
      Buffer.add_string buf "}\n"
    end;
    let sp = { sp_ctx = { tid; sid }; sp_prev = s.cur } in
    s.cur <- sp.sp_ctx;
    sp
  end

let finish ?(attrs = []) sp =
  if sp.sp_ctx.sid <> 0 && !enabled then begin
    let s = st () in
    if !trace_cap > 0 && s.trace_records >= !trace_cap then
      s.trace_dropped <- s.trace_dropped + 1
    else begin
      s.trace_records <- s.trace_records + 1;
      let buf = s.buf in
      Buffer.add_string buf "{\"t\":";
      add_time s buf;
      Buffer.add_string buf ",\"ev\":\"E\",\"sid\":";
      Buffer.add_string buf (string_of_int sp.sp_ctx.sid);
      add_attrs buf attrs;
      Buffer.add_string buf "}\n"
    end;
    s.cur <- sp.sp_prev
  end

let event ?(attrs = []) name =
  if !enabled then begin
    let s = st () in
    if !trace_cap > 0 && s.trace_records >= !trace_cap then
      s.trace_dropped <- s.trace_dropped + 1
    else begin
      s.trace_records <- s.trace_records + 1;
      let buf = s.buf in
      Buffer.add_string buf "{\"t\":";
      add_time s buf;
      Buffer.add_string buf ",\"ev\":\"P\",\"tid\":";
      Buffer.add_string buf (string_of_int s.cur.tid);
      Buffer.add_string buf ",\"pid\":";
      Buffer.add_string buf (string_of_int s.cur.sid);
      Buffer.add_string buf ",\"name\":";
      add_json_string buf name;
      add_attrs buf attrs;
      Buffer.add_string buf "}\n"
    end
  end

let with_span ?attrs name f =
  if not !enabled then f ()
  else begin
    let s = span ?attrs name in
    match f () with
    | v ->
        finish s;
        v
    | exception e ->
        finish ~attrs:[ ("outcome", "exn") ] s;
        raise e
  end

let span_count () = (st ()).spans_started
let trace_dropped () = (st ()).trace_dropped

(* {1 Metrics}

   The cumulative cells fire under either plane; with [metrics_enabled]
   each sample additionally lands in the current virtual-time window (and,
   for histograms, the run-cumulative bucket table). With both planes off
   a site costs two flag loads and nothing else. *)

let counter name = register Counter name
let gauge name = register Gauge name
let histogram name = register Hist name

let add c n =
  if !enabled || !metrics_enabled then begin
    let s = st () in
    let cl = cell_of s c in
    cl.cl_n <- cl.cl_n + n;
    if !metrics_enabled then begin
      let w = ru_wcell s c in
      w.w_n <- w.w_n + n
    end
  end

let incr c = add c 1
let counter_value c = (cell_of (st ()) c).cl_n

let gauge_set g v =
  if !enabled || !metrics_enabled then begin
    let s = st () in
    let cl = cell_of s g in
    cl.cf.(f_last) <- v;
    if v > cl.cf.(f_max) then cl.cf.(f_max) <- v;
    if !metrics_enabled then begin
      let w = ru_wcell s g in
      w.wf.(f_last) <- v;
      w.w_gauge <- true;
      if v > w.wf.(f_max) then w.wf.(f_max) <- v
    end
  end

let gauge_value g = cl_last (cell_of (st ()) g)
let gauge_max g = cl_max (cell_of (st ()) g)

let observe h v =
  if !enabled || !metrics_enabled then begin
    let s = st () in
    let cl = cell_of s h in
    cl.cl_n <- cl.cl_n + 1;
    let cf = cl.cf in
    cf.(f_sum) <- cf.(f_sum) +. v;
    if v < cf.(f_min) then cf.(f_min) <- v;
    if v > cf.(f_max) then cf.(f_max) <- v;
    if !metrics_enabled then begin
      let r = get_ru s in
      let i = Hdr.index v in
      wobserve_at (ru_slot_cell s r h) v i;
      wobserve_at (ru_cum_wcell r h) v i
    end
  end

let histogram_count h = (cell_of (st ()) h).cl_n
let histogram_sum h = cl_sum (cell_of (st ()) h)

let histogram_mean h =
  let cl = cell_of (st ()) h in
  if cl.cl_n = 0 then 0.0 else (cl_sum cl) /. Float.of_int cl.cl_n

let reset () =
  let s = st () in
  Buffer.clear s.buf;
  s.next_span <- 1;
  s.next_trace <- 1;
  s.cur <- null_ctx;
  s.spans_started <- 0;
  s.trace_records <- 0;
  s.trace_dropped <- 0;
  s.ru <- None;
  Array.iter blank_cell s.cells

(* {1 Capture / absorb}

   The trial pool brackets each trial with [capture]: the domain gets a
   fresh state (with span/trace ids starting at [ids_base], so trials
   never collide), the trial runs, and what it recorded comes back as an
   inert snapshot. The pool then [absorb]s the snapshots in trial-index
   order on the main domain — the merged trace and metrics are therefore
   a pure function of the trial list, independent of how many domains ran
   it or how they interleaved. *)

type snapshot = {
  snap_trace : string;
  snap_spans : int;
  snap_cells : (handle * cell) list;
  snap_rows : string; (* trial's rollup rows, fully rendered, windows in order *)
  snap_cum : (handle * wcell) list; (* trial's run-cumulative histogram buckets *)
  snap_dropped : int; (* trace records refused at the trial's cap *)
}

let empty_snapshot =
  { snap_trace = ""; snap_spans = 0; snap_cells = []; snap_rows = ""; snap_cum = []; snap_dropped = 0 }

(* The recording-state lifecycle behind [capture], exposed separately
   for clients whose unit of isolation is not a function call: the
   parallel engine (Par) keeps one state per PARTITION alive across many
   windows, installing it on whichever domain executes the partition
   next, and snapshots once at the end of the whole run. *)

type rec_state = state

let state_create ?(ids_base = 0) () =
  let fresh = new_state () in
  fresh.next_span <- ids_base + 1;
  fresh.next_trace <- ids_base + 1;
  fresh

let state_install fresh =
  let saved = st () in
  Domain.DLS.set dls fresh;
  saved

let state_snapshot fresh =
  let all = registered () in
  let cells = Array.to_list (Array.mapi (fun i c -> (all.(i), c)) fresh.cells) in
  (* Rollup rows are rendered per trial: a trial's window sequence is
     self-contained, so the merged dump is the trials' rows spliced in
     trial-index order — a pure function of the trial list. *)
  let rows, cum =
    match fresh.ru with
    | None -> ("", [])
    | Some r ->
        let cum = ref [] in
        Array.iteri
          (fun i w -> if i < Array.length all && w.w_n <> 0 then cum := (all.(i), w) :: !cum)
          r.ru_cum;
        (ru_rows r, List.rev !cum)
  in
  {
    snap_trace = Buffer.contents fresh.buf;
    snap_spans = fresh.spans_started;
    snap_cells = cells;
    snap_rows = rows;
    snap_cum = cum;
    snap_dropped = fresh.trace_dropped;
  }

let capture ?(ids_base = 0) f =
  if not (!enabled || !metrics_enabled) then (f (), empty_snapshot)
  else begin
    let fresh = state_create ~ids_base () in
    let saved = state_install fresh in
    let restore () = Domain.DLS.set dls saved in
    match f () with
    | v ->
        restore ();
        (v, state_snapshot fresh)
    | exception e ->
        restore ();
        raise e
  end

let absorb snap =
  if
    snap.snap_trace <> "" || snap.snap_spans <> 0 || snap.snap_cells <> []
    || snap.snap_rows <> "" || snap.snap_cum <> [] || snap.snap_dropped <> 0
  then begin
    let s = st () in
    Buffer.add_string s.buf snap.snap_trace;
    s.spans_started <- s.spans_started + snap.snap_spans;
    s.trace_dropped <- s.trace_dropped + snap.snap_dropped;
    List.iter
      (fun (h, c) ->
        let dst = cell_of s h in
        match h.h_kind with
        | Counter -> dst.cl_n <- dst.cl_n + c.cl_n
        | Hist ->
            dst.cl_n <- dst.cl_n + c.cl_n;
            dst.cf.(f_sum) <- dst.cf.(f_sum) +. cl_sum c;
            if cl_min c < cl_min dst then dst.cf.(f_min) <- cl_min c;
            if cl_max c > cl_max dst then dst.cf.(f_max) <- cl_max c
        | Gauge ->
            if cl_max c > neg_infinity then begin
              dst.cf.(f_last) <- cl_last c;
              if cl_max c > cl_max dst then dst.cf.(f_max) <- cl_max c
            end)
      snap.snap_cells;
    if snap.snap_rows <> "" || snap.snap_cum <> [] then begin
      let r = get_ru s in
      Buffer.add_string r.ru_mbuf snap.snap_rows;
      List.iter
        (fun (h, (w : wcell)) ->
          let dst = ru_cum_wcell r h in
          dst.w_n <- dst.w_n + w.w_n;
          dst.wf.(f_sum) <- dst.wf.(f_sum) +. w.wf.(f_sum);
          if w.wf.(f_min) < dst.wf.(f_min) then dst.wf.(f_min) <- w.wf.(f_min);
          if w.wf.(f_max) > dst.wf.(f_max) then dst.wf.(f_max) <- w.wf.(f_max);
          Hdr.merge_into ~into:dst.w_hist w.w_hist)
        snap.snap_cum
    end
  end

(* {1 Output} *)

let trace_jsonl () = Buffer.contents (st ()).buf

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  add_json_string b s;
  Buffer.contents b

let touched_metrics () =
  let s = st () in
  let all = registered () in
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      if i < Array.length all then begin
        let h = all.(i) in
        let live =
          match h.h_kind with
          | Counter | Hist -> c.cl_n <> 0
          | Gauge -> (cl_max c) > neg_infinity
        in
        if live then acc := (h, c) :: !acc
      end)
    s.cells;
  List.sort (fun ((a : handle), _) (b, _) -> String.compare a.h_metric b.h_metric) !acc

let metrics_jsonl () =
  let lines =
    List.map
      (fun ((h : handle), c) ->
        match h.h_kind with
        | Counter ->
            Printf.sprintf "{\"metric\":%S,\"type\":\"counter\",\"value\":%d}" h.h_metric c.cl_n
        | Gauge ->
            Printf.sprintf "{\"metric\":%S,\"type\":\"gauge\",\"value\":%s,\"max\":%s}" h.h_metric
              (fmt_float (cl_last c)) (fmt_float (cl_max c))
        | Hist ->
            Printf.sprintf
              "{\"metric\":%S,\"type\":\"hist\",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s}"
              h.h_metric c.cl_n (fmt_float (cl_sum c)) (fmt_float (cl_min c)) (fmt_float (cl_max c)))
      (touched_metrics ())
  in
  String.concat "" (List.map (fun l -> l ^ "\n") lines)

let dump_jsonl ~path () =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* stream the trace buffer straight to the channel — [trace_jsonl]
         would first copy the whole run's trace into one string, doubling
         peak memory for long runs *)
      Buffer.output_buffer oc (st ()).buf;
      output_string oc (metrics_jsonl ()))

(* {1 Metrics-plane dump}

   Header line, the windowed rows (evicted first, then the still-open ring
   in window order), then one cumulative whole-run row per touched metric
   with [w = -1]. Cumulative counter and gauge rows read the plain cells —
   which capture/absorb already merge — so they agree with {!metrics_jsonl};
   cumulative histogram quantiles come from the run-cumulative bucket
   tables, fed sample-by-sample alongside the windows. *)

let metrics_plane_jsonl () =
  let s = st () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"splay-metrics/1\",\"window\":";
  Buffer.add_string b (fmt_float !rollup_window);
  Buffer.add_string b "}\n";
  (match s.ru with Some r -> Buffer.add_string b (ru_rows r) | None -> ());
  List.iter
    (fun ((h : handle), c) ->
      match h.h_kind with
      | Counter -> add_row b ~name:h.h_metric ~kind:"counter" ~wid:(-1) [ ("n", string_of_int c.cl_n) ]
      | Gauge ->
          add_row b ~name:h.h_metric ~kind:"gauge" ~wid:(-1)
            [ ("last", fmt_float (cl_last c)); ("max", fmt_float (cl_max c)) ]
      | Hist ->
          let cum =
            match s.ru with
            | Some r when h.h_id < Array.length r.ru_cum -> Some r.ru_cum.(h.h_id)
            | _ -> None
          in
          let fields =
            match cum with
            | Some w when w.w_n > 0 -> hist_fields ~with_quantiles:true w
            | _ ->
                [
                  ("n", string_of_int c.cl_n);
                  ("sum", fmt_float (cl_sum c));
                  ("min", fmt_float (cl_min c));
                  ("max", fmt_float (cl_max c));
                ]
          in
          add_row b ~name:h.h_metric ~kind:"hist" ~wid:(-1) fields)
    (touched_metrics ());
  Buffer.contents b

let dump_metrics ~path () =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (metrics_plane_jsonl ()))

(* {1 Rollup — public face of the windowed plane} *)

module Rollup = struct
  let set_window w = if w > 0.0 && Float.is_finite w then rollup_window := w
  let window () = !rollup_window

  let clear () =
    let s = st () in
    s.ru <- None

  let quantile (h : handle) q =
    let s = st () in
    match s.ru with
    | None -> 0.0
    | Some r ->
        if h.h_id >= Array.length r.ru_cum then 0.0
        else
          let w = r.ru_cum.(h.h_id) in
          Hdr.quantile w.w_hist ~min:(w_min w) ~max:(w_max w) q

  let count (h : handle) =
    let s = st () in
    match s.ru with
    | None -> 0
    | Some r -> if h.h_id >= Array.length r.ru_cum then 0 else r.ru_cum.(h.h_id).w_n

  let note ?(attrs = []) name =
    if !metrics_enabled then begin
      let s = st () in
      let r = get_ru s in
      let t = s.clock () in
      let wid0 = int_of_float (t /. !rollup_window) in
      let wid = if wid0 < r.ru_cur then r.ru_cur else wid0 in
      if wid > r.ru_cur then ru_advance r wid;
      let b = r.ru_mbuf in
      Buffer.add_string b "{\"m\":";
      add_json_string b name;
      Buffer.add_string b ",\"kind\":\"note\",\"w\":";
      Buffer.add_string b (string_of_int r.ru_cur);
      Buffer.add_string b ",\"t\":";
      add_time_value b t;
      add_attrs b attrs;
      Buffer.add_string b "}\n"
    end

  let rows () = match (st ()).ru with None -> "" | Some r -> ru_rows r
end

let report () =
  Report.section "Observability summary (Splay_obs)";
  let touched = touched_metrics () in
  let of_kind k = List.filter (fun ((h : handle), _) -> h.h_kind = k) touched in
  let cs = of_kind Counter in
  if cs <> [] then
    Report.table ~header:[ "counter"; "value" ]
      (List.map (fun ((h : handle), c) -> [ h.h_metric; string_of_int c.cl_n ]) cs);
  let gs = of_kind Gauge in
  if gs <> [] then
    Report.table ~header:[ "gauge"; "value"; "max" ]
      (List.map
         (fun ((h : handle), c) -> [ h.h_metric; fmt_float (cl_last c); fmt_float (cl_max c) ])
         gs);
  let hs = of_kind Hist in
  if hs <> [] then
    Report.table
      ~header:[ "histogram"; "count"; "mean"; "min"; "max" ]
      (List.map
         (fun ((h : handle), c) ->
           [
             h.h_metric;
             string_of_int c.cl_n;
             Report.float_cell ~decimals:6 ((cl_sum c) /. Float.of_int c.cl_n);
             Report.float_cell ~decimals:6 (cl_min c);
             Report.float_cell ~decimals:6 (cl_max c);
           ])
         hs);
  Report.kvf "trace spans" "%d" (span_count ())
