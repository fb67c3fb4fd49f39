(* Offline analysis of the metrics-plane dump ([splay-metrics/2] JSONL):
   the consumer behind [splay top]. Reuses Trace_analysis's flat-JSON line
   parser; rows are kept as raw field lists so the loader never chokes on
   fields added by a newer writer. *)

module Sink = Splay_stats.Sink

let schema = "splay-metrics/2"

type row = {
  r_metric : string;
  r_kind : string; (* "counter" | "gauge" | "hist" | "note" *)
  r_w : int; (* window index; -1 = whole-run cumulative *)
  r_fields : (string * string) list;
  r_hist : Sink.t option; (* a hist row, decoded *)
}

type t = {
  window : float; (* window width in virtual seconds *)
  rows : row list; (* file order *)
  windows : int list; (* distinct w >= 0, ascending *)
}

let float_field r k = Trace_analysis.float_field r.r_fields k
let int_field r k = Trace_analysis.int_field r.r_fields k

(* A hist row is usable only with buckets that decode and sum to its n;
   anything else is a malformed line and is skipped like one. *)
let hist_of fields =
  let f k default = Option.value ~default (Trace_analysis.float_field fields k) in
  match (Trace_analysis.field fields "buckets", Trace_analysis.int_field fields "n") with
  | Some b, Some n ->
      Sink.decode ~n ~sum:(f "sum" 0.0) ~min:(f "min" infinity) ~max:(f "max" neg_infinity) b
  | _ -> None

let load text =
  let window = ref 10.0 in
  let rows = ref [] in
  let wset = Hashtbl.create 16 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Trace_analysis.parse_line line with
           | exception Trace_analysis.Bad_line _ -> ()
           | fields -> (
               match Trace_analysis.field fields "schema" with
               | Some sc when sc <> schema ->
                   failwith
                     (Printf.sprintf
                        "%s dump: only %s rows carry the bucket counts to merge; re-record the run"
                        sc schema)
               | Some _ -> (
                   match Trace_analysis.float_field fields "window" with
                   | Some w when w > 0.0 -> window := w
                   | _ -> ())
               | None -> (
                   match (Trace_analysis.field fields "m", Trace_analysis.field fields "kind") with
                   | Some m, Some kind ->
                       let r_hist = if kind = "hist" then hist_of fields else None in
                       if kind <> "hist" || r_hist <> None then begin
                         let w =
                           Option.value ~default:(-1) (Trace_analysis.int_field fields "w")
                         in
                         if w >= 0 then Hashtbl.replace wset w ();
                         rows :=
                           { r_metric = m; r_kind = kind; r_w = w; r_fields = fields; r_hist }
                           :: !rows
                       end
                   | _ -> ())));
  let windows = List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) wset []) in
  { window = !window; rows = List.rev !rows; windows }

(* {1 Aggregation}

   A multi-trial dump splices each trial's windows in trial order, so one
   (window, metric) pair can appear several times. Counters add; gauges
   keep the last row's value and the max of maxes; histogram rows merge
   as sinks, so a merged quantile is the one a single sink fed every
   trial's samples would give. *)

let rows_of t ~w metric =
  List.filter (fun r -> r.r_w = w && r.r_metric = metric && r.r_kind <> "note") t.rows

let counter_n rows = List.fold_left (fun acc r -> acc + Option.value ~default:0 (int_field r "n")) 0 rows

let hist rows =
  let k = Sink.sketch () in
  List.iter (fun r -> Option.iter (Sink.merge_into ~into:k) r.r_hist) rows;
  k

(* [nan] stands for an empty histogram's statistics. *)
let q k p = if Sink.is_empty k then nan else Sink.quantile k p

(* SLO violation rate: the share of a histogram's observations above a
   threshold, read off the merged buckets. *)
let violation_rate k ~threshold =
  if Sink.is_empty k then nan else 1.0 -. Sink.fraction_le k threshold

let metrics_of_kind t kind =
  List.sort_uniq compare
    (List.filter_map (fun r -> if r.r_kind = kind && r.r_w >= 0 then Some r.r_metric else None) t.rows)

let series_count t =
  List.length (List.sort_uniq compare (List.map (fun r -> (r.r_metric, r.r_kind)) t.rows))

(* {1 Dashboard} *)

let cell_f v = if Float.is_nan v then "-" else Printf.sprintf "%.6f" v

let rate_cell t rows =
  let n = counter_n rows in
  if rows = [] then "-" else Printf.sprintf "%.1f" (Float.of_int n /. t.window)

(* The percentile columns track one histogram metric: [metric] if given,
   else rpc.latency when present, else the first histogram with windowed
   rows. *)
let pick_hist t = function
  | Some m -> m
  | None -> (
      let hists = metrics_of_kind t "hist" in
      if List.mem "rpc.latency" hists then "rpc.latency"
      else match hists with m :: _ -> m | [] -> "rpc.latency")

let render ?metric ?(k = 5) ?slo t =
  let b = Buffer.create 4096 in
  let pct = pick_hist t metric in
  let span_hi =
    match List.rev t.windows with [] -> 0.0 | w :: _ -> Float.of_int (w + 1) *. t.window
  in
  Printf.bprintf b "window %gs · %d windows · %d series · virtual span [0, %g)s\n" t.window
    (List.length t.windows) (series_count t) span_hi;
  Printf.bprintf b "percentile columns: %s\n" pct;
  (match slo with
  | Some (m, thr) -> Printf.bprintf b "slo column: share of %s observations over %g\n" m thr
  | None -> ());
  Buffer.add_char b '\n';
  let viol_cell rows thr =
    let v = violation_rate (hist rows) ~threshold:thr in
    if Float.is_nan v then "-" else Printf.sprintf "%.2f%%" (100.0 *. v)
  in
  Printf.bprintf b "  %3s %10s %12s %12s %12s %10s %12s %12s %12s%s\n" "w" "t0" "msgs/s" "rpc/s"
    "events/s" "drops/s" "p50" "p99" "p999"
    (match slo with Some _ -> Printf.sprintf " %9s" "slo-viol" | None -> "");
  List.iter
    (fun w ->
      let c name = rate_cell t (rows_of t ~w name) in
      let h = hist (rows_of t ~w pct) in
      Printf.bprintf b "  %3d %10.1f %12s %12s %12s %10s %12s %12s %12s%s\n" w
        (Float.of_int w *. t.window)
        (c "net.msgs_sent") (c "rpc.calls") (c "engine.events") (c "net.dropped")
        (cell_f (q h 0.5)) (cell_f (q h 0.99)) (cell_f (q h 0.999))
        (match slo with
        | Some (m, thr) -> Printf.sprintf " %9s" (viol_cell (rows_of t ~w m) thr)
        | None -> ""))
    t.windows;
  (match slo with
  | Some (m, thr) ->
      let cum = List.filter (fun r -> r.r_w = -1 && r.r_metric = m && r.r_kind = "hist") t.rows in
      let h = hist cum in
      if not (Sink.is_empty h) then
        Printf.bprintf b "\nslo: %s over %g → %s of %d observations whole-run\n" m thr
          (let v = violation_rate h ~threshold:thr in
           if Float.is_nan v then "-" else Printf.sprintf "%.2f%%" (100.0 *. v))
          (Sink.count h)
  | None -> ());
  let cum = List.filter (fun r -> r.r_w = -1 && r.r_kind = "hist") t.rows in
  if cum <> [] then begin
    Printf.bprintf b "\ncumulative histograms\n";
    List.iter
      (fun m ->
        let h = hist (List.filter (fun r -> r.r_metric = m) cum) in
        if not (Sink.is_empty h) then
          Printf.bprintf b "  %-24s n=%-9d mean=%s min=%s max=%s p50=%s p99=%s p999=%s\n" m
            (Sink.count h) (cell_f (Sink.mean h)) (cell_f (Sink.min_value h))
            (cell_f (Sink.max_value h)) (cell_f (q h 0.5)) (cell_f (q h 0.99))
            (cell_f (q h 0.999)))
      (List.sort_uniq compare (List.map (fun r -> r.r_metric) cum))
  end;
  let notes = List.filter (fun r -> r.r_kind = "note") t.rows in
  if notes <> [] then begin
    Printf.bprintf b "\nstatus rows (last %d)\n" k;
    let last =
      let skip = List.length notes - k in
      List.filteri (fun i _ -> i >= skip) notes
    in
    List.iter
      (fun r ->
        Printf.bprintf b "  w=%-3d %s" r.r_w r.r_metric;
        List.iter
          (fun (key, v) ->
            if key <> "m" && key <> "kind" && key <> "w" then Printf.bprintf b " %s=%s" key v)
          r.r_fields;
        Buffer.add_char b '\n')
      last
  end;
  Buffer.contents b

(* {1 Prometheus text exposition}

   Cumulative rows only — the exposition format is a point-in-time
   scrape, and the whole-run totals are the natural values to expose.
   Histograms map to summaries (quantile labels + _sum/_count). *)

let prom_name m =
  let b = Buffer.create (String.length m + 6) in
  Buffer.add_string b "splay_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    m;
  Buffer.contents b

let prom_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let prometheus t =
  let b = Buffer.create 2048 in
  let cum = List.filter (fun r -> r.r_w = -1) t.rows in
  let by_metric =
    List.sort_uniq compare (List.map (fun r -> (r.r_metric, r.r_kind)) cum)
  in
  List.iter
    (fun (m, kind) ->
      let rows = List.filter (fun r -> r.r_metric = m && r.r_kind = kind) cum in
      let name = prom_name m in
      match kind with
      | "counter" ->
          Printf.bprintf b "# TYPE %s counter\n%s %d\n" name name (counter_n rows)
      | "gauge" ->
          let last =
            match List.rev rows with
            | r :: _ -> Option.value ~default:0.0 (float_field r "last")
            | [] -> 0.0
          in
          Printf.bprintf b "# TYPE %s gauge\n%s %s\n" name name (prom_float last)
      | "hist" ->
          let h = hist rows in
          Printf.bprintf b "# TYPE %s summary\n" name;
          List.iter
            (fun (p, label) ->
              let v = q h p in
              if not (Float.is_nan v) then
                Printf.bprintf b "%s{quantile=\"%s\"} %s\n" name label (prom_float v))
            [ (0.5, "0.5"); (0.9, "0.9"); (0.99, "0.99"); (0.999, "0.999") ];
          Printf.bprintf b "%s_sum %s\n%s_count %d\n" name (prom_float (Sink.sum h)) name
            (Sink.count h)
      | _ -> ())
    by_metric;
  Buffer.contents b
