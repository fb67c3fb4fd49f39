(* One bench row, one timer, one writer and one floors checker (see
   row.mli). The rows and the floors are flat one-line JSON objects, so
   the checker reads both with the trace analyzer's line parser. *)

module T = Splay_obs.Trace_analysis

type t = {
  name : string;
  ops : int;
  seconds : float;
  seconds_min : float;
  seconds_mad : float;
  reps : int;
  fields : (string * float) list;
}

let schema = "splay-bench/2"

(* A gated ratio reads medians of three, so one slow run on a drifting
   host cannot flip it; a row no ratio reads runs once. *)
let gated_reps = 3

let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ops_per_sec r = if r.seconds > 0.0 then Float.of_int r.ops /. r.seconds else 0.0

let show v = if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

let print r =
  Printf.printf "  %-30s %12.0f ops/s  (%d ops in %.3f s%s) %s\n%!" r.name (ops_per_sec r) r.ops
    r.seconds
    (if r.reps > 1 then Printf.sprintf ", median of %d, mad %.3f" r.reps r.seconds_mad else "")
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (show v)) r.fields))

let time ~reps name f =
  if reps < 1 then invalid_arg "Row.time: reps must be >= 1";
  let last = ref None and secs = ref [] in
  for _ = 1 to reps do
    let r, s = f () in
    last := Some r;
    secs := s :: !secs
  done;
  let ops, fields = Option.get !last in
  let m = median !secs in
  let r =
    {
      name;
      ops;
      seconds = m;
      seconds_min = List.fold_left Float.min infinity !secs;
      seconds_mad = median (List.map (fun s -> Float.abs (s -. m)) !secs);
      reps;
      fields;
    }
  in
  print r;
  r

(* {1 Writer} *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let to_line r =
  let kv =
    [
      ("ops", string_of_int r.ops);
      ("seconds", Printf.sprintf "%.6f" r.seconds);
      ("seconds_min", Printf.sprintf "%.6f" r.seconds_min);
      ("seconds_mad", Printf.sprintf "%.6f" r.seconds_mad);
      ("reps", string_of_int r.reps);
      ("ops_per_sec", Printf.sprintf "%.0f" (ops_per_sec r));
    ]
    @ List.map (fun (k, v) -> (k, num v)) r.fields
  in
  Printf.sprintf "{\"name\": \"%s\"%s}" r.name
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %s" k v) kv))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let read path = In_channel.with_open_bin path In_channel.input_all

(* {1 Floors checker} *)

(* The flat one-line objects of a bench or floors text that name a row. *)
let records text =
  List.filter_map
    (fun line ->
      let l = String.trim line in
      let l = if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1) else l in
      if String.starts_with ~prefix:"{\"name\"" l then Some (T.parse_line l) else None)
    (String.split_on_char '\n' text)

let strip ~prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let verdict ok fmt = Printf.ksprintf (fun s -> (ok, s)) fmt

let label kind ok = if ok then kind ^ " ok:" else String.uppercase_ascii kind ^ " VIOLATION:"

let bound ~value ~name ~baseline key limit =
  let missing row f = verdict false "VIOLATION: %s has no %s field in bench output" row f in
  let holds kind x = if kind = "floor" then x >= limit else x <= limit in
  let kind_field k =
    match strip ~prefix:"floor_" k with
    | Some f -> Some ("floor", f)
    | None -> Option.map (fun f -> ("ceiling", f)) (strip ~prefix:"ceiling_" k)
  in
  if key = "floor_speedup_x_per_worker" then
    match (value name "speedup_x", value name "workers") with
    | None, _ -> missing name "speedup_x"
    | _, None -> missing name "workers"
    | Some s, Some w when w < 2.0 ->
        verdict true "speedup n/a: %s %.2fx on %.0f worker(s), %s core(s), degenerate, not gated"
          name s w
          (match value name "cores" with Some c -> Printf.sprintf "%.0f" c | None -> "?")
    | Some s, Some w ->
        let ok = s >= limit *. w in
        verdict ok "%s %s reached %.2fx on %.0f workers (floor %.2fx)" (label "speedup" ok) name s w
          (limit *. w)
  else
    match kind_field key with
    | None -> verdict false "VIOLATION: %s has unknown bound %s" name key
    | Some (kind, f) -> (
        match (strip ~prefix:"ratio_" f, baseline) with
        | Some _, None -> verdict false "VIOLATION: %s has a %s bound but no baseline" name key
        | Some f, Some b -> (
            match (value name f, value b f) with
            | None, _ -> missing name f
            | _, None -> missing b f
            | Some x, Some y ->
                let r = if y > 0.0 then x /. y else infinity in
                let ok = holds kind r in
                verdict ok "%s %s %s is %.2fx its baseline %s (%s %.2fx)" (label (kind ^ " ratio") ok)
                  name f r b kind limit)
        | None, _ -> (
            match value name f with
            | None -> missing name f
            | Some x ->
                let ok = holds kind x in
                verdict ok "%s %s %s = %s (%s %s)" (label kind ok) name f (show x) kind (show limit)))

let check ~bench ~floors =
  let rows = Hashtbl.create 64 in
  List.iter
    (fun r -> Option.iter (fun n -> Hashtbl.replace rows n r) (T.field r "name"))
    (records bench);
  let value row f = Option.bind (Hashtbl.find_opt rows row) (fun r -> T.float_field r f) in
  List.concat_map
    (fun b ->
      let name = Option.value (T.field b "name") ~default:"" in
      if not (Hashtbl.mem rows name) then
        [ verdict false "VIOLATION: workload %s missing from bench output" name ]
      else
        List.filter_map
          (fun (k, v) ->
            if k = "name" || k = "baseline" then None
            else
              match float_of_string_opt v with
              | Some limit -> Some (bound ~value ~name ~baseline:(T.field b "baseline") k limit)
              | None -> Some (verdict false "VIOLATION: %s bound %s is not a number" name k))
          b)
    (records floors)

let violations = ref 0

let write ~dir file rows =
  mkdir_p dir;
  let path = Filename.concat dir file in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n  \"schema\": \"%s\",\n  \"rows\": [\n    %s\n  ]\n}\n" schema
        (String.concat ",\n    " (List.map to_line rows)));
  Printf.printf "  wrote %s\n%!" path;
  let floors = Filename.remove_extension file ^ ".floors.json" in
  if Sys.file_exists floors then begin
    let verdicts = check ~bench:(read path) ~floors:(read floors) in
    List.iter (fun (_, msg) -> Printf.printf "  %s\n" msg) verdicts;
    let bad = List.length (List.filter (fun (ok, _) -> not ok) verdicts) in
    violations := !violations + bad;
    Printf.printf "  %s: %d bounds, %d violated\n%!" floors (List.length verdicts) bad
  end
