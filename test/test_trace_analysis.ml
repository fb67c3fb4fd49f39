(* Tests for the offline trace analyzer: the line parser (escapes, foreign
   lines), DAG reconstruction, and a hand-built trace whose critical path
   and per-hop self times are known exactly. *)

open Support
module Ta = Splay_obs.Trace_analysis
module Obs = Splay_obs.Obs

(* Root spans 0..10; child a [1,3], child b [3,9] with grandchild c
   [4,8.5]; a P event, an L record, a metrics line, a span never closed.
   Critical path: root -> b (finishes at 9 > a's 3) -> c.
   Self times: root 10-6=4, b 6-4.5=1.5, c 4.5. *)
let fixture =
  String.concat "\n"
    [
      {|{"t":0.000000,"ev":"B","sid":1,"tid":1,"pid":0,"name":"root","node":"n0"}|};
      {|{"t":1.000000,"ev":"B","sid":2,"tid":1,"pid":1,"name":"a","src":"n1"}|};
      {|{"t":2.000000,"ev":"L","node":"n1","level":"info","msg":"hi"}|};
      {|{"t":2.500000,"ev":"P","tid":1,"pid":2,"name":"ping"}|};
      {|{"t":3.000000,"ev":"E","sid":2}|};
      {|{"t":3.000000,"ev":"B","sid":3,"tid":1,"pid":1,"name":"b","node":"n2"}|};
      {|{"t":4.000000,"ev":"B","sid":4,"tid":1,"pid":3,"name":"c","dst":"n3"}|};
      {|{"metric":"engine.events","type":"counter","value":5}|};
      {|{"t":8.500000,"ev":"E","sid":4,"outcome":"ok"}|};
      {|{"t":9.000000,"ev":"E","sid":3}|};
      {|{"t":5.000000,"ev":"B","sid":5,"tid":2,"pid":0,"name":"crashed"}|};
      {|{"t":10.000000,"ev":"E","sid":1}|};
    ]

let load_fixture () = Ta.load fixture

(* The hop rows of a printed critical path: span, node, start_s,
   duration_s, self_s. *)
let hops ?root t = List.map List.tl (numbered_rows (printed (fun () -> Ta.print_critical_path ?root t)))

let column i rows = List.map (fun row -> List.nth row i) rows

let test_load () =
  let t = load_fixture () in
  Alcotest.(check int) "five spans" 5 (List.length t.Ta.spans);
  Alcotest.(check int) "two roots" 2 (List.length t.Ta.roots);
  Alcotest.(check int) "one P event" 1 (List.length t.Ta.events);
  Alcotest.(check int) "one L record" 1 t.Ta.logs;
  let root = Hashtbl.find t.Ta.by_sid 1 in
  Alcotest.(check (list string)) "children in begin order" [ "a"; "b" ]
    (List.map (fun sp -> sp.Ta.name) root.Ta.children);
  let c = Hashtbl.find t.Ta.by_sid 4 in
  Alcotest.(check (float 1e-9)) "duration from B/E" 4.5 (c.Ta.stop -. c.Ta.start);
  Alcotest.(check (option string)) "finish attrs merged" (Some "ok")
    (List.assoc_opt "outcome" c.Ta.attrs);
  (* the never-closed span is clamped to the last timestamp seen *)
  let crashed = Hashtbl.find t.Ta.by_sid 5 in
  Alcotest.(check bool) "unclosed flagged" false crashed.Ta.closed;
  Alcotest.(check (float 1e-9)) "unclosed clamped to trace end" 5.0
    (crashed.Ta.stop -. crashed.Ta.start)

let test_critical_path () =
  let t = load_fixture () in
  let root = Hashtbl.find t.Ta.by_sid 1 in
  let path = hops ~root t in
  Alcotest.(check (list string)) "follows the latest finisher" [ "root"; "b"; "c" ]
    (column 0 path);
  (* node column fallback order: node, then src, then dst *)
  Alcotest.(check (list string)) "node attr, then dst" [ "n0"; "n2"; "n3" ] (column 1 path);
  Alcotest.(check (list string)) "src fallback" [ "n1" ]
    (column 1 (hops ~root:(Hashtbl.find t.Ta.by_sid 2) t));
  Alcotest.(check (list string)) "durations" [ "10.000000"; "6.000000"; "4.500000" ]
    (column 3 path);
  let selfs = column 4 path in
  Alcotest.(check (list string)) "per-hop self times" [ "4.000000"; "1.500000"; "4.500000" ] selfs;
  (* total self time accounts for the root's whole duration *)
  Alcotest.(check (float 1e-9)) "self times sum to root duration" 10.0
    (List.fold_left (fun acc s -> acc +. float_of_string s) 0.0 selfs);
  Alcotest.(check (list string)) "slowest root by default" (column 0 path) (column 0 (hops t))

let test_slowest_root () =
  let t = load_fixture () in
  (match Ta.slowest_root t with
  | Some sp -> Alcotest.(check string) "longest root wins" "root" sp.Ta.name
  | None -> Alcotest.fail "no root");
  (match Ta.slowest_root ~name:"crashed" t with
  | Some sp -> Alcotest.(check int) "named lookup" 5 sp.Ta.sid
  | None -> Alcotest.fail "named root not found");
  Alcotest.(check bool) "unknown name is None" true (Ta.slowest_root ~name:"nope" t = None);
  (* rpc.call roots are preferred over longer infrastructure roots *)
  let t2 =
    Ta.load
      (String.concat "\n"
         [
           {|{"t":0.0,"ev":"B","sid":1,"tid":1,"pid":0,"name":"housekeeping"}|};
           {|{"t":100.0,"ev":"E","sid":1}|};
           {|{"t":1.0,"ev":"B","sid":2,"tid":2,"pid":0,"name":"rpc.call","proc":"get"}|};
           {|{"t":6.0,"ev":"E","sid":2,"outcome":"ok"}|};
         ])
  in
  match Ta.slowest_root t2 with
  | Some sp -> Alcotest.(check string) "rpc.call preferred" "rpc.call" sp.Ta.name
  | None -> Alcotest.fail "no root in t2"

let test_parser_escapes () =
  let t =
    Ta.load
      {|{"t":1.0,"ev":"B","sid":1,"tid":1,"pid":0,"name":"q\"\\\n\tAz","k":"v\/w"}|}
  in
  match t.Ta.spans with
  | [ sp ] ->
      Alcotest.(check string) "escapes decoded" "q\"\\\n\tAz" sp.Ta.name;
      Alcotest.(check (option string)) "solidus escape" (Some "v/w") (List.assoc_opt "k" sp.Ta.attrs)
  | _ -> Alcotest.fail "expected one span"

(* The analyzer must accept whatever the writer emits: round-trip a trace
   through Obs and recover structure and attributes exactly. *)
let test_round_trip () =
  with_obs (fun () ->
      let outer = Obs.span ~attrs:[ ("msg", "line1\nline2\ttab \"quoted\"") ] "outer" in
      let inner = Obs.span "inner" in
      Obs.event ~attrs:[ ("n", "1") ] "tick";
      Obs.finish inner;
      Obs.finish ~attrs:[ ("outcome", "ok") ] outer;
      let t = Ta.load (Obs.trace_jsonl ()) in
      Alcotest.(check int) "two spans" 2 (List.length t.Ta.spans);
      Alcotest.(check int) "one root" 1 (List.length t.Ta.roots);
      let o = List.hd t.Ta.roots in
      Alcotest.(check string) "root name" "outer" o.Ta.name;
      Alcotest.(check (option string)) "control characters survive"
        (Some "line1\nline2\ttab \"quoted\"") (List.assoc_opt "msg" o.Ta.attrs);
      Alcotest.(check (option string)) "finish attr merged" (Some "ok") (List.assoc_opt "outcome" o.Ta.attrs);
      match (o.Ta.children, t.Ta.events) with
      | [ i ], [ ev ] ->
          Alcotest.(check string) "child linked" "inner" i.Ta.name;
          Alcotest.(check int) "event inside the inner span" i.Ta.sid ev.Ta.ev_pid
      | _ -> Alcotest.fail "expected one child and one event")

(* Smoke: the printers run on the fixture without raising (their output is
   eyeballed via `splay trace`; here we only pin that they don't crash and
   that the critical path printer names the path members). *)
let test_printers () =
  let t = load_fixture () in
  Ta.print_summary t;
  Ta.print_critical_path t;
  let empty = Ta.load "" in
  Ta.print_summary empty;
  Ta.print_critical_path empty

let () =
  Alcotest.run "splay_trace_analysis"
    [
      ( "analysis",
        [
          Alcotest.test_case "load" `Quick test_load;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "slowest root" `Quick test_slowest_root;
          Alcotest.test_case "parser escapes" `Quick test_parser_escapes;
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "printers" `Quick test_printers;
        ] );
    ]
