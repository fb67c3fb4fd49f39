module Report = Splay_stats.Report
module Sink = Splay_stats.Sink

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

(* The virtual clock, read in place: a flat float cell costs no
   allocation per read, where a [unit -> float] closure boxes its result,
   and the metrics plane reads the clock on every sample. *)
type clock = { mutable v : float }

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

(* {1 Cells}

   One cell type holds one metric's aggregate, whatever its kind: a
   counter's value, a gauge's last value and high-water mark, and a
   histogram's {!Sink.t} (exact count/sum/min/max and the log-bucket
   table, whose slots are allocated on the first sample, so counters and
   gauges never pay for them). The domain's run-cumulative table and
   every window of the rollup ring are arrays of cells indexed by handle
   id. Gauge values live in a flat float array: a mutable float field in
   a mixed record boxes on every store, and the metrics fast path stays
   allocation-free. *)

let g_last = 0
let g_max = 1

type cell = {
  mutable n : int; (* counter value *)
  g : float array; (* gauge last / high-water, unboxed *)
  mutable set : bool; (* gauge set at least once *)
  h : Sink.t; (* histogram samples *)
}

let fresh_cell () = { n = 0; g = [| 0.0; neg_infinity |]; set = false; h = Sink.sketch () }

let blank_cell c =
  c.n <- 0;
  c.g.(g_last) <- 0.0;
  c.g.(g_max) <- neg_infinity;
  c.set <- false;
  Sink.clear c.h

let set_gauge c v =
  c.g.(g_last) <- v;
  if v > c.g.(g_max) then c.g.(g_max) <- v;
  c.set <- true

(* Fold a later trial's cell into [into]: counters and histograms add,
   a gauge keeps the later last value and the larger high-water mark. *)
let merge_cell ~into c =
  into.n <- into.n + c.n;
  if c.set then begin
    into.g.(g_last) <- c.g.(g_last);
    if c.g.(g_max) > into.g.(g_max) then into.g.(g_max) <- c.g.(g_max);
    into.set <- true
  end;
  Sink.merge_into ~into:into.h c.h

let touched (h : handle) c =
  match h.h_kind with Counter -> c.n <> 0 | Gauge -> c.set | Hist -> not (Sink.is_empty c.h)

(* [cells] grown to cover [h] and everything registered so far. *)
let grow cells (h : handle) =
  let have = Array.length cells in
  let total = max (Array.length (registered ())) (h.h_id + 1) in
  Array.init total (fun i -> if i < have then cells.(i) else fresh_cell ())

(* The touched cells of a table, sorted by metric name (ties broken by
   registration id) so bytes never depend on hash or registration
   order. *)
let touched_cells cells =
  let all = registered () in
  let acc = ref [] in
  Array.iteri
    (fun i c -> if i < Array.length all && touched all.(i) c then acc := (all.(i), c) :: !acc)
    cells;
  List.sort
    (fun ((a : handle), _) (b, _) ->
      let c = String.compare a.h_metric b.h_metric in
      if c <> 0 then c else compare a.h_id b.h_id)
    !acc

(* {1 Rollup state}

   A window is a table of cells holding each metric's aggregate over one
   virtual-time window. The ring holds the [ring_width] most recent
   windows; advancing past a window renders its touched cells to the
   domain's rollup buffer (one JSON line per metric) and recycles the
   slot. Memory is therefore O(metrics × ring_width + rendered rows),
   independent of run length only in the cell tables — the rendered rows
   grow one line per touched metric per window, which at a 10-second
   window is ~5 orders of magnitude lighter than a trace. *)

let ring_width = 4

type ru = {
  ru_mbuf : Buffer.t; (* rendered rows of windows already evicted *)
  ru_slots : cell array array; (* ring_width slots, each indexed by handle id *)
  ru_wids : int array; (* window id held by each slot, -1 = empty *)
  mutable ru_cur : int; (* newest window id, -1 before the first sample *)
}

(* {1 Domain-local state}

   One record per domain holding everything a recording site touches.
   Trials running on different domains each get their own; the pool
   captures a trial's state and merges it back in trial order
   ({!capture} / {!absorb}), keeping output independent of how trials
   were spread over domains. *)

type state = {
  mutable clock : clock;
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
    clock = { v = 0.0 };
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
  if h.h_id >= Array.length s.cells then s.cells <- grow s.cells h;
  s.cells.(h.h_id)

let set_clock c = (st ()).clock <- c

let current () = (st ()).cur
let set_current c = (st ()).cur <- c

(* A span remembers its own context (for envelopes) and the context that
   was current when it started (restored on finish, so a finished span
   stops labelling subsequent work — even when start and finish happen in
   different engine events, as with RPC call spans). *)
type span = { sp_ctx : ctx; sp_prev : ctx }

let null_span = { sp_ctx = null_ctx; sp_prev = null_ctx }

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

let add_time s b = add_time_value b s.clock.v

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

(* {1 Rollup rendering}

   One JSON line per touched metric per window, written when a window is
   evicted from the ring (and for still-open windows at dump time):

     {"m":NAME,"kind":"counter","w":K,"t0":…,"t1":…,"n":N,"rate":R}
     {"m":NAME,"kind":"gauge","w":K,"t0":…,"t1":…,"last":…,"max":…}
     {"m":NAME,"kind":"hist","w":K,…,"n":…,"sum":…,"min":…,"max":…,
      "p50":…,"p90":…,"p99":…,"p999":…,"buckets":"I:C,…"}

   [w] is the window index (floor(t / width)); cumulative whole-run rows
   use w = -1 and omit t0/t1. Metrics within a window are sorted by name
   (ties broken by registration id) so bytes never depend on hash or
   registration order.

   A histogram row carries its bucket table ({!Sink.encode}), so readers
   merge rows by adding counts; its min/max are written at round-trip
   precision because every quantile read back from the buckets clamps to
   them. The p50..p999 fields are for people reading the file. *)

let add_rollup_field b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":";
  Buffer.add_string b v

(* The shortest of %.15g/%.16g/%.17g that reads back as [v]. *)
let fmt_exact v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s
  else
    let s = Printf.sprintf "%.16g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let add_row ?hist b ~name ~kind ~wid fields =
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
  (match hist with
  | Some h ->
      Buffer.add_string b ",\"buckets\":\"";
      Sink.encode b h;
      Buffer.add_char b '"'
  | None -> ());
  Buffer.add_string b "}\n"

(* A touched cell's row; a counter's windowed row also carries its
   rate. *)
let cell_row b (h : handle) ~wid c =
  match h.h_kind with
  | Counter ->
      add_row b ~name:h.h_metric ~kind:"counter" ~wid
        (("n", string_of_int c.n)
        :: (if wid < 0 then [] else [ ("rate", fmt_float (Float.of_int c.n /. !rollup_window)) ]))
  | Gauge ->
      add_row b ~name:h.h_metric ~kind:"gauge" ~wid
        [ ("last", fmt_float c.g.(g_last)); ("max", fmt_float c.g.(g_max)) ]
  | Hist ->
      let k = c.h in
      let q p = fmt_float (Sink.quantile k p) in
      add_row ~hist:k b ~name:h.h_metric ~kind:"hist" ~wid
        [
          ("n", string_of_int (Sink.count k));
          ("sum", fmt_float (Sink.sum k));
          ("min", fmt_exact (Sink.min_value k));
          ("max", fmt_exact (Sink.max_value k));
          ("p50", q 0.5);
          ("p90", q 0.9);
          ("p99", q 0.99);
          ("p999", q 0.999);
        ]

let render_slot b r slot =
  let wid = r.ru_wids.(slot) in
  List.iter (fun (h, c) -> cell_row b h ~wid c) (touched_cells r.ru_slots.(slot))

let evict r slot =
  if r.ru_wids.(slot) >= 0 then begin
    render_slot r.ru_mbuf r slot;
    Array.iter blank_cell r.ru_slots.(slot);
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
        }
      in
      s.ru <- Some r;
      r

(* Advance the ring to the clock's window. A clock reading behind the
   newest window (a fresh engine installed its clock on a state that
   already rolled forward) clamps to the newest window rather than
   corrupting an already-rendered one. The cell, not its value, is
   passed: a float argument would be boxed. *)
let ru_seek r (c : clock) =
  let wid = int_of_float (c.v /. !rollup_window) in
  if wid > r.ru_cur then ru_advance r wid

(* The current window's cell for [h]. *)
let window_cell s (h : handle) =
  let r = get_ru s in
  ru_seek r s.clock;
  let slot = r.ru_cur mod ring_width in
  if h.h_id >= Array.length r.ru_slots.(slot) then r.ru_slots.(slot) <- grow r.ru_slots.(slot) h;
  r.ru_slots.(slot).(h.h_id)

(* Everything the rollup plane has produced, into [b]: already-evicted
   rows, then the still-open ring windows in increasing order.
   Non-destructive. *)
let add_ru_rows b r =
  Buffer.add_buffer b r.ru_mbuf;
  List.iter (fun sl -> render_slot b r sl) (slots_in_order r)

let ru_rows r =
  let b = Buffer.create (Buffer.length r.ru_mbuf + 512) in
  add_ru_rows b r;
  Buffer.contents b

(* Open a trace record: the time and the event tag [ev] (which carries
   the next field's key). Past the cap the record is counted and refused
   ([false]), but the caller advances ids, counters and context exactly as
   before, so the stored prefix stays byte-identical to an uncapped
   run. *)
let open_record s ev =
  if !trace_cap > 0 && s.trace_records >= !trace_cap then begin
    s.trace_dropped <- s.trace_dropped + 1;
    false
  end
  else begin
    s.trace_records <- s.trace_records + 1;
    Buffer.add_string s.buf "{\"t\":";
    add_time s s.buf;
    Buffer.add_string s.buf ev;
    true
  end

let close_record buf attrs =
  add_attrs buf attrs;
  Buffer.add_string buf "}\n"

let add_name buf name =
  Buffer.add_string buf ",\"name\":";
  add_json_string buf name

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
    if open_record s ",\"ev\":\"B\",\"sid\":" then begin
      let buf = s.buf in
      Buffer.add_string buf (string_of_int sid);
      Buffer.add_string buf ",\"tid\":";
      Buffer.add_string buf (string_of_int tid);
      Buffer.add_string buf ",\"pid\":";
      Buffer.add_string buf (string_of_int parent.sid);
      add_name buf name;
      close_record buf attrs
    end;
    let sp = { sp_ctx = { tid; sid }; sp_prev = s.cur } in
    s.cur <- sp.sp_ctx;
    sp
  end

let finish ?(attrs = []) sp =
  if sp.sp_ctx.sid <> 0 && !enabled then begin
    let s = st () in
    if open_record s ",\"ev\":\"E\",\"sid\":" then begin
      Buffer.add_string s.buf (string_of_int sp.sp_ctx.sid);
      close_record s.buf attrs
    end;
    s.cur <- sp.sp_prev
  end

let event ?(attrs = []) name =
  if !enabled then begin
    let s = st () in
    if open_record s ",\"ev\":\"P\",\"tid\":" then begin
      let buf = s.buf in
      Buffer.add_string buf (string_of_int s.cur.tid);
      Buffer.add_string buf ",\"pid\":";
      Buffer.add_string buf (string_of_int s.cur.sid);
      add_name buf name;
      close_record buf attrs
    end
  end

let span_count () = (st ()).spans_started
let trace_dropped () = (st ()).trace_dropped

(* {1 Metrics}

   The cumulative cells fire under either plane; with [metrics_enabled]
   each sample additionally lands in the current virtual-time window.
   With both planes off a site costs two flag loads and nothing else. *)

let counter name = register Counter name
let gauge name = register Gauge name
let histogram name = register Hist name

let add c n =
  if !enabled || !metrics_enabled then begin
    let s = st () in
    let cl = cell_of s c in
    cl.n <- cl.n + n;
    if !metrics_enabled then begin
      let w = window_cell s c in
      w.n <- w.n + n
    end
  end

let incr c = add c 1
let counter_value c = (cell_of (st ()) c).n

let gauge_set g v =
  if !enabled || !metrics_enabled then begin
    let s = st () in
    set_gauge (cell_of s g) v;
    if !metrics_enabled then set_gauge (window_cell s g) v
  end

let observe h v =
  if !enabled || !metrics_enabled then begin
    let s = st () in
    Sink.add (cell_of s h).h v;
    if !metrics_enabled then Sink.add (window_cell s h).h v
  end

(* Drop the rollup ring and rendered rows and blank the cumulative
   cells. *)
let clear_metrics s =
  s.ru <- None;
  Array.iter blank_cell s.cells

let reset () =
  let s = st () in
  Buffer.clear s.buf;
  s.next_span <- 1;
  s.next_trace <- 1;
  s.cur <- null_ctx;
  s.spans_started <- 0;
  s.trace_records <- 0;
  s.trace_dropped <- 0;
  clear_metrics s

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
  snap_dropped : int; (* trace records refused at the trial's cap *)
}

let empty_snapshot =
  { snap_trace = ""; snap_spans = 0; snap_cells = []; snap_rows = ""; snap_dropped = 0 }

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
  {
    snap_trace = Buffer.contents fresh.buf;
    snap_spans = fresh.spans_started;
    snap_cells = cells;
    snap_rows = (match fresh.ru with None -> "" | Some r -> ru_rows r);
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
    || snap.snap_rows <> "" || snap.snap_dropped <> 0
  then begin
    let s = st () in
    Buffer.add_string s.buf snap.snap_trace;
    s.spans_started <- s.spans_started + snap.snap_spans;
    s.trace_dropped <- s.trace_dropped + snap.snap_dropped;
    List.iter (fun (h, c) -> merge_cell ~into:(cell_of s h) c) snap.snap_cells;
    if snap.snap_rows <> "" then Buffer.add_string (get_ru s).ru_mbuf snap.snap_rows
  end

(* {1 Output} *)

let trace_jsonl () = Buffer.contents (st ()).buf

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  add_json_string b s;
  Buffer.contents b

let touched_metrics () = touched_cells (st ()).cells

let metrics_jsonl () =
  let lines =
    List.map
      (fun ((h : handle), c) ->
        match h.h_kind with
        | Counter ->
            Printf.sprintf "{\"metric\":%S,\"type\":\"counter\",\"value\":%d}" h.h_metric c.n
        | Gauge ->
            Printf.sprintf "{\"metric\":%S,\"type\":\"gauge\",\"value\":%s,\"max\":%s}" h.h_metric
              (fmt_float c.g.(g_last)) (fmt_float c.g.(g_max))
        | Hist ->
            let k = c.h in
            Printf.sprintf
              "{\"metric\":%S,\"type\":\"hist\",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s}"
              h.h_metric (Sink.count k) (fmt_float (Sink.sum k)) (fmt_float (Sink.min_value k))
              (fmt_float (Sink.max_value k)))
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
   with [w = -1], read off the run-cumulative cells — which capture/absorb
   merge — so they agree with {!metrics_jsonl}. *)

let metrics_plane_jsonl () =
  let s = st () in
  (* one buffer, presized past the evicted rows, so the dump is built
     without an intermediate copy and without regrowing *)
  let evicted = match s.ru with Some r -> Buffer.length r.ru_mbuf | None -> 0 in
  let b = Buffer.create (evicted + 65536) in
  Buffer.add_string b "{\"schema\":\"splay-metrics/2\",\"window\":";
  Buffer.add_string b (fmt_float !rollup_window);
  Buffer.add_string b "}\n";
  (match s.ru with Some r -> add_ru_rows b r | None -> ());
  List.iter (fun (h, c) -> cell_row b h ~wid:(-1) c) (touched_metrics ());
  Buffer.contents b

let dump_metrics ~path () =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (metrics_plane_jsonl ()))

(* {1 Rollup — public face of the windowed plane} *)

module Rollup = struct
  let set_window w = if w > 0.0 && Float.is_finite w then rollup_window := w
  let window () = !rollup_window

  let clear () = clear_metrics (st ())

  let count (h : handle) = Sink.count (cell_of (st ()) h).h

  let quantile (h : handle) q =
    let k = (cell_of (st ()) h).h in
    if Sink.is_empty k then 0.0 else Sink.quantile k q

  let note ?(attrs = []) name =
    if !metrics_enabled then begin
      let s = st () in
      let r = get_ru s in
      ru_seek r s.clock;
      let b = r.ru_mbuf in
      Buffer.add_string b "{\"m\":";
      add_json_string b name;
      Buffer.add_string b ",\"kind\":\"note\",\"w\":";
      Buffer.add_string b (string_of_int r.ru_cur);
      Buffer.add_string b ",\"t\":";
      add_time s b;
      add_attrs b attrs;
      Buffer.add_string b "}\n"
    end
end

let report () =
  Report.section "Observability summary (Splay_obs)";
  let touched = touched_metrics () in
  let of_kind k = List.filter (fun ((h : handle), _) -> h.h_kind = k) touched in
  let cs = of_kind Counter in
  if cs <> [] then
    Report.table ~header:[ "counter"; "value" ]
      (List.map (fun ((h : handle), c) -> [ h.h_metric; string_of_int c.n ]) cs);
  let gs = of_kind Gauge in
  if gs <> [] then
    Report.table ~header:[ "gauge"; "value"; "max" ]
      (List.map
         (fun ((h : handle), c) -> [ h.h_metric; fmt_float c.g.(g_last); fmt_float c.g.(g_max) ])
         gs);
  let hs = of_kind Hist in
  if hs <> [] then
    Report.table
      ~header:[ "histogram"; "count"; "mean"; "min"; "max" ]
      (List.map
         (fun ((h : handle), c) ->
           [
             h.h_metric;
             string_of_int (Sink.count c.h);
             Report.float_cell ~decimals:6 (Sink.mean c.h);
             Report.float_cell ~decimals:6 (Sink.min_value c.h);
             Report.float_cell ~decimals:6 (Sink.max_value c.h);
           ])
         hs);
  Report.kvf "trace spans" "%d" (span_count ())
