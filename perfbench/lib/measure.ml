(* Measurement primitives shared by every workload: a monotonic clock,
   in-memory spans, and order statistics.

   Host time comes from CLOCK_MONOTONIC (bechamel's stub), never from the
   wall clock, so an NTP step cannot land inside a measurement. Spans are
   appended to an in-memory buffer and written out once, after the
   measured phases, so writing them costs nothing that is timed. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------- spans ---------- *)

type clock = Host | Virtual

type span = {
  id : int;
  parent : int; (* 0 for a root *)
  name : string;
  clock : clock;
  start : float;
  stop : float;
}

(* Per-operation spans (one per request or lookup) are recorded only in a
   traced run; phase spans (set-up sub-phases, the engine drive) are a
   handful per run and always recorded. *)
let tracing = ref false

let spans : span list ref = ref []
let next_id = ref 0

type open_span = { o_id : int; o_parent : int; o_name : string; o_start : float }

let fresh_id () =
  incr next_id;
  !next_id

(* A host-clock span whose children can name it as parent before it
   closes. [close] returns its duration in seconds. *)
let open_ ?(parent = 0) name = { o_id = fresh_id (); o_parent = parent; o_name = name; o_start = now () }

let close o =
  let stop = now () in
  spans :=
    { id = o.o_id; parent = o.o_parent; name = o.o_name; clock = Host; start = o.o_start; stop }
    :: !spans;
  stop -. o.o_start

let id o = o.o_id

(* Run [f] inside a host-clock span; returns its result and duration. *)
let host_span ?parent name f =
  let o = open_ ?parent name in
  let r = f () in
  (r, close o)

let host_record ~parent name ~start ~stop =
  spans := { id = fresh_id (); parent; name; clock = Host; start; stop } :: !spans

(* One operation in virtual time (traced runs only). *)
let op_span ~parent name ~start ~stop =
  if !tracing then
    spans := { id = fresh_id (); parent; name; clock = Virtual; start; stop } :: !spans

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) !spans

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"clock\":\"%s\",\"start\":%.9f,\"stop\":%.9f}\n"
        s.id s.parent s.name
        (match s.clock with Host -> "host" | Virtual -> "virtual")
        s.start s.stop)
    (List.rev !spans);
  close_out oc

(* ---------- order statistics ---------- *)

(* Linear interpolation between the order statistics of [sorted] (the
   same rule as Python's statistics.quantiles "inclusive" method). *)
let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. Float.of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. Float.of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let quantile l q = quantile_sorted (sorted_of_list l) q
let median l = quantile l 0.5

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. Float.of_int (List.length l)
