module Report = Splay_stats.Report

type span = {
  sid : int;
  tid : int;
  pid : int;
  name : string;
  start : float;
  mutable stop : float;
  mutable closed : bool;
  mutable attrs : (string * string) list;
  mutable children : span list;
}

type pevent = {
  ev_time : float;
  ev_tid : int;
  ev_pid : int;
  ev_name : string;
  ev_attrs : (string * string) list;
}

type t = {
  spans : span list;
  events : pevent list;
  by_sid : (int, span) Hashtbl.t;
  roots : span list;
  logs : int;
}

(* {1 Line parser}

   The trace writer emits flat one-line JSON objects whose values are
   strings or numbers — no nesting, no arrays. A hand-rolled parser for
   exactly that shape keeps the analyzer dependency-free. String values are
   unescaped; numeric values are kept as their raw text (converted on
   demand). *)

exception Bad_line of string

let fail msg = raise (Bad_line msg)

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else '\000' in
  let advance () = incr pos in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c at %d" c !pos);
    advance ()
  in
  let skip_ws () =
    while !pos < n && (peek () = ' ' || peek () = '\t') do
      advance ()
    done
  in
  let add_utf8 b u =
    (* good enough for the writer's output, which only escapes controls *)
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = peek () in
      advance ();
      if c = '"' then Buffer.contents b
      else if c <> '\\' then begin
        Buffer.add_char b c;
        go ()
      end
      else begin
        (if !pos >= n then fail "dangling escape");
        let e = peek () in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub line !pos 4 in
            pos := !pos + 4;
            add_utf8 b (int_of_string ("0x" ^ hex))
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        go ()
      end
    in
    go ()
  in
  let parse_raw () =
    (* number / true / false / null: everything up to ',' or '}' *)
    let start = !pos in
    while !pos < n && peek () <> ',' && peek () <> '}' do
      advance ()
    done;
    String.trim (String.sub line start (!pos - start))
  in
  skip_ws ();
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = '}' then []
  else begin
    let rec members () =
      skip_ws ();
      let k = parse_string () in
      skip_ws ();
      expect ':';
      skip_ws ();
      let v = if peek () = '"' then parse_string () else parse_raw () in
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | ',' ->
          advance ();
          members ()
      | '}' -> ()
      | _ -> fail "expected , or }"
    in
    members ();
    List.rev !fields
  end

let field fields k = List.assoc_opt k fields
let int_field fields k = Option.bind (field fields k) int_of_string_opt
let float_field fields k = Option.bind (field fields k) float_of_string_opt

(* Attribute keys are whatever is left after the fixed schema fields. *)
let schema_keys = [ "t"; "ev"; "sid"; "tid"; "pid"; "name" ]
let attrs_of fields = List.filter (fun (k, _) -> not (List.mem k schema_keys)) fields

let load text =
  let spans_rev = ref [] in
  let events_rev = ref [] in
  let by_sid = Hashtbl.create 256 in
  let logs = ref 0 in
  let last_t = ref 0.0 in
  let handle line =
    if String.length (String.trim line) = 0 then ()
    else
      match parse_line line with
      | exception Bad_line _ -> () (* foreign line: skip *)
      | fields -> (
          (match float_field fields "t" with
          | Some t when t > !last_t -> last_t := t
          | _ -> ());
          match field fields "ev" with
          | None -> () (* metrics line *)
          | Some "B" -> (
              match (int_field fields "sid", float_field fields "t") with
              | Some sid, Some t ->
                  let sp =
                    {
                      sid;
                      tid = Option.value ~default:0 (int_field fields "tid");
                      pid = Option.value ~default:0 (int_field fields "pid");
                      name = Option.value ~default:"?" (field fields "name");
                      start = t;
                      stop = t;
                      closed = false;
                      attrs = attrs_of fields;
                      children = [];
                    }
                  in
                  Hashtbl.replace by_sid sid sp;
                  spans_rev := sp :: !spans_rev
              | _ -> ())
          | Some "E" -> (
              match (int_field fields "sid", float_field fields "t") with
              | Some sid, Some t -> (
                  match Hashtbl.find_opt by_sid sid with
                  | None -> () (* orphan end: span began before the dump *)
                  | Some sp ->
                      sp.stop <- t;
                      sp.closed <- true;
                      sp.attrs <- sp.attrs @ attrs_of fields)
              | _ -> ())
          | Some "P" ->
              events_rev :=
                {
                  ev_time = Option.value ~default:0.0 (float_field fields "t");
                  ev_tid = Option.value ~default:0 (int_field fields "tid");
                  ev_pid = Option.value ~default:0 (int_field fields "pid");
                  ev_name = Option.value ~default:"?" (field fields "name");
                  ev_attrs = attrs_of fields;
                }
                :: !events_rev
          | Some "L" -> incr logs
          | Some _ -> ())
  in
  String.split_on_char '\n' text |> List.iter handle;
  let spans = List.rev !spans_rev in
  (* clamp never-closed spans (crashed or still-running processes) *)
  List.iter (fun sp -> if not sp.closed then sp.stop <- max sp.start !last_t) spans;
  let roots = ref [] in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt by_sid sp.pid with
      | Some parent when sp.pid <> 0 -> parent.children <- parent.children @ [ sp ]
      | _ -> roots := sp :: !roots)
    spans;
  {
    spans;
    events = List.rev !events_rev;
    by_sid;
    roots = List.rev !roots;
    logs = !logs;
  }

(* {1 Queries} *)

let duration sp = sp.stop -. sp.start
let attr sp k = List.assoc_opt k sp.attrs

let node_of sp =
  match attr sp "node" with
  | Some v -> v
  | None -> (
      match attr sp "src" with
      | Some v -> v
      | None -> ( match attr sp "dst" with Some v -> v | None -> "-"))

(* The child that finishes last determined when its parent could finish:
   follow it recursively. [>=] sends ties to the later sibling — the one
   whose work actually abutted the parent's end. *)
let critical_path root =
  let rec go sp acc =
    match sp.children with
    | [] -> List.rev (sp :: acc)
    | cs ->
        let latest =
          List.fold_left (fun best c -> if c.stop >= best.stop then c else best) (List.hd cs) cs
        in
        go latest (sp :: acc)
  in
  go root []

let self_times path =
  let rec go = function
    | [] -> []
    | [ sp ] -> [ (sp, duration sp) ]
    | sp :: (next :: _ as rest) -> (sp, duration sp -. duration next) :: go rest
  in
  go path

let slowest ~than cands =
  List.fold_left
    (fun best sp ->
      match best with Some b when duration b >= duration sp -> best | _ -> Some sp)
    than cands

let slowest_root ?name t =
  match name with
  | Some nm -> slowest ~than:None (List.filter (fun sp -> sp.name = nm) t.spans)
  | None -> (
      match slowest ~than:None (List.filter (fun sp -> sp.name = "rpc.call") t.roots) with
      | Some _ as r -> r
      | None -> slowest ~than:None t.roots)

(* {1 Reports} *)

let fcell v = Report.float_cell ~decimals:6 v

let print_summary t =
  Report.section "Trace summary";
  Report.kvf "spans" "%d" (List.length t.spans);
  Report.kvf "roots" "%d" (List.length t.roots);
  Report.kvf "events" "%d" (List.length t.events);
  if t.logs > 0 then Report.kvf "log records" "%d" t.logs;
  let unclosed = List.length (List.filter (fun sp -> not sp.closed) t.spans) in
  if unclosed > 0 then Report.kvf "unclosed spans" "%d" unclosed;
  (* per-name rollup, alphabetical for stable output *)
  let groups : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let count, total, mx =
        match Hashtbl.find_opt groups sp.name with
        | Some g -> g
        | None ->
            let g = (ref 0, ref 0.0, ref 0.0) in
            Hashtbl.replace groups sp.name g;
            g
      in
      incr count;
      total := !total +. duration sp;
      if duration sp > !mx then mx := duration sp)
    t.spans;
  let rows =
    Hashtbl.fold (fun name (c, tot, mx) acc -> (name, !c, !tot, !mx) :: acc) groups []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)
  in
  if rows <> [] then
    Report.table
      ~header:[ "span"; "count"; "total_s"; "mean_s"; "max_s" ]
      (List.map
         (fun (name, c, tot, mx) ->
           [ name; string_of_int c; fcell tot; fcell (tot /. Float.of_int c); fcell mx ])
         rows);
  (* per-RPC table: calls grouped by procedure, with outcome counts *)
  let calls = List.filter (fun sp -> sp.name = "rpc.call") t.spans in
  if calls <> [] then begin
    let procs : (string, span list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        let proc = Option.value ~default:"?" (attr sp "proc") in
        match Hashtbl.find_opt procs proc with
        | Some l -> l := sp :: !l
        | None -> Hashtbl.replace procs proc (ref [ sp ]))
      calls;
    let rows =
      Hashtbl.fold (fun proc sps acc -> (proc, !sps) :: acc) procs []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Report.table
      ~header:[ "rpc"; "calls"; "ok"; "errors"; "mean_s"; "max_s" ]
      (List.map
         (fun (proc, sps) ->
           let n = List.length sps in
           let ok =
             List.length (List.filter (fun sp -> attr sp "outcome" = Some "ok") sps)
           in
           let tot = List.fold_left (fun a sp -> a +. duration sp) 0.0 sps in
           let mx = List.fold_left (fun a sp -> Float.max a (duration sp)) 0.0 sps in
           [
             proc;
             string_of_int n;
             string_of_int ok;
             string_of_int (n - ok);
             fcell (tot /. Float.of_int n);
             fcell mx;
           ])
         rows)
  end

let print_critical_path ?root t =
  match (match root with Some _ as r -> r | None -> slowest_root t) with
  | None -> Report.kv "critical path" "(no spans in trace)"
  | Some root ->
      Report.section
        (Printf.sprintf "Critical path of %s (sid %d, %.6f s)" root.name root.sid
           (duration root));
      let path = critical_path root in
      let hops = self_times path in
      Report.table
        ~header:[ "hop"; "span"; "node"; "start_s"; "duration_s"; "self_s" ]
        (List.mapi
           (fun i (sp, self) ->
             [ string_of_int i; sp.name; node_of sp; fcell sp.start; fcell (duration sp); fcell self ])
           hops);
      Report.kvf "hops" "%d" (List.length hops)
