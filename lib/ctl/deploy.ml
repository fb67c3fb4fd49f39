module Rng = Splay_sim.Rng
module Ivar = Splay_sim.Ivar
module Log = Splay_runtime.Log
module Obs = Splay_obs.Obs

(* The deployment conversation of splayctl, written once for both
   backends: select a superset of candidate slots, REGISTER them all,
   keep the first [need] to acknowledge and FREE the stragglers, refill
   shortfalls, then push LIST+START with each member's bootstrap list.
   Both controllers hand it the same RPC [transport], the live one over
   its tunnel to real daemons, and run it inside a process of their
   engine; a test hands it a fake one. *)

let c_registers = Obs.counter "ctl.registers_sent"
let c_register_acks = Obs.counter "ctl.register_acks"

(* {1 Selection} *)

type criterion =
  | Min_bandwidth of float
  | Near of (float * float) * float
  | On_testbed of Testbed.kind
  | Custom of (Testbed.host -> bool)

let matches crit (h : Testbed.host) =
  match crit with
  | Min_bandwidth bw -> h.Testbed.bw_up >= bw
  | Near ((x, y), dmax) ->
      let cx, cy = h.Testbed.coord in
      let dx = cx -. x and dy = cy -. y in
      sqrt ((dx *. dx) +. (dy *. dy)) <= dmax
  | On_testbed k -> h.Testbed.kind = k
  | Custom f -> f h

let criterion_label = function
  | Min_bandwidth _ -> "min_bandwidth"
  | Near _ -> "near"
  | On_testbed _ -> "on_testbed"
  | Custom _ -> "custom"

type selection_report = {
  sel_alive : int;
  sel_dead : int;
  sel_matched : int;
  sel_rejected : (string * int) list;
}

(* A daemon is charged to the *first* criterion that rejects it, in the
   order the caller listed them — "12 hosts failed min_bandwidth" is the
   diagnosis the deployer needs when a job comes up short. *)
let select rng ?(criteria = []) ~alive ~host daemons n =
  let rejected = List.map (fun c -> (c, ref 0)) criteria in
  let dead = ref 0 in
  let pool =
    List.filter
      (fun d ->
        if not (alive d) then begin
          incr dead;
          false
        end
        else
          match List.find_opt (fun (c, _) -> not (matches c (host d))) rejected with
          | Some (_, r) ->
              incr r;
              false
          | None -> true)
      daemons
  in
  let report =
    {
      sel_alive = List.length daemons - !dead;
      sel_dead = !dead;
      sel_matched = List.length pool;
      sel_rejected = List.map (fun (c, r) -> (criterion_label c, !r)) rejected;
    }
  in
  let chosen =
    match pool with
    | [] -> []
    | _ ->
        let arr = Array.of_list pool in
        Rng.shuffle rng arr;
        List.init n (fun i -> arr.(i mod Array.length arr))
  in
  (chosen, report)

(* {1 The conversation} *)

type 'd transport = {
  spawn : (unit -> unit) -> unit;
  pace : unit -> unit;
  register : 'd -> Addr.t option;
  start : 'd -> Addr.t -> position:int -> nodes:Addr.t list -> bool;
  free : 'd -> Addr.t -> unit;
}

(* The daemons' procedures, called from [env] over the modelled network
   or, live, through the tunnel to real daemons. *)
let transport ?(register_timeout = 10.0) ?(pace = ignore) env ~addr ~job =
  let call d ~timeout p arg = Rpc.invoke env (addr d) ~timeout p arg in
  {
    spawn = (fun f -> ignore (Env.thread env f));
    pace;
    register =
      (fun d ->
        match call d ~timeout:register_timeout Daemon.proc_register job with
        | Ok port -> Some (Addr.make (addr d).Addr.host port)
        | Error _ -> None);
    start =
      (fun d a ~position ~nodes ->
        let port = a.Addr.port in
        Result.is_ok (call d ~timeout:30.0 Daemon.proc_list (port, position, nodes))
        && Result.is_ok (call d ~timeout:30.0 Daemon.proc_start (job, port)));
    free = (fun d a -> ignore (call d ~timeout:30.0 Daemon.proc_free a.Addr.port));
  }

(* Spawn every thunk (pacing after each), then block until all have
   returned or, checked after each one, [until ()] holds. *)
let join ~spawn ~pace ~until thunks =
  let remaining = ref (List.length thunks) in
  let done_iv = Ivar.create () in
  List.iter
    (fun f ->
      spawn (fun () ->
          f ();
          decr remaining;
          if until () || !remaining = 0 then Ivar.try_fill done_iv () |> ignore);
      pace ())
    thunks;
  if thunks <> [] then Ivar.read done_iv

let fan_out ~spawn ?(pace = ignore) thunks = join ~spawn ~pace ~until:(fun () -> false) thunks

(* Register a batch of candidate slots in parallel; return the first [need]
   acknowledgements (in arrival order) and FREE the stragglers. *)
let register_round tr candidates ~need =
  Obs.add c_registers (List.length candidates);
  let winners = ref [] and n_winners = ref 0 in
  join ~spawn:tr.spawn ~pace:tr.pace
    ~until:(fun () -> !n_winners >= need)
    (List.map
       (fun d () ->
         match tr.register d with
         | Some a ->
             Obs.incr c_register_acks;
             if !n_winners < need then begin
               winners := (d, a) :: !winners;
               incr n_winners
             end
             else (* supernumerary: free it, asynchronously *)
               tr.spawn (fun () -> tr.free d a)
         | None -> ())
       candidates);
  List.rev !winners

let bootstrap rng desc members =
  match desc.Descriptor.bootstrap with
  | Descriptor.Head k -> Misc.take k members
  | Descriptor.All -> members
  | Descriptor.Random_subset k -> Rng.sample rng k members

let no_report = { sel_alive = 0; sel_dead = 0; sel_matched = 0; sel_rejected = [] }

let deploy tr rng ~select ?(superset = 1.25) ~job ~name desc =
  let need = desc.Descriptor.nb_splayd in
  let sp_deploy =
    if !Obs.enabled then
      Obs.span
        ~attrs:[ ("job", string_of_int job); ("name", name); ("need", string_of_int need) ]
        "ctl.deploy"
    else Obs.null_span
  in
  let report = ref no_report in
  (* the initial superset, then up to two refill rounds for shortfalls *)
  let rec gather acc round =
    let missing = need - List.length acc in
    if missing <= 0 || round > 3 then acc
    else begin
      let factor = if round = 1 then superset else superset +. 0.25 in
      let want = int_of_float (Float.ceil (Float.of_int missing *. factor)) in
      let cands, sel = select want in
      report := sel;
      if List.length cands < want && !Obs.enabled then
        Obs.event
          ~attrs:
            (( "round", string_of_int round )
             :: ("want", string_of_int want)
             :: ("matched", string_of_int sel.sel_matched)
             :: ("dead", string_of_int sel.sel_dead)
             :: List.map (fun (l, n) -> ("rejected_" ^ l, string_of_int n)) sel.sel_rejected)
          "ctl.select_short";
      let sp_round =
        if !Obs.enabled then
          Obs.span
            ~attrs:[ ("round", string_of_int round); ("candidates", string_of_int (List.length cands)) ]
            "ctl.register_round"
        else Obs.null_span
      in
      let won = register_round tr cands ~need:missing in
      if !Obs.enabled then
        Obs.finish ~attrs:[ ("won", string_of_int (List.length won)) ] sp_round;
      gather (acc @ won) (round + 1)
    end
  in
  let winners = gather [] 1 in
  let all_addrs = List.map snd winners in
  let members = List.mapi (fun i (d, a) -> (d, a, i + 1)) winners in
  let sp_start =
    if !Obs.enabled then
      Obs.span ~attrs:[ ("members", string_of_int (List.length members)) ] "ctl.start_phase"
    else Obs.null_span
  in
  fan_out ~spawn:tr.spawn ~pace:tr.pace
    (List.map
       (fun (d, a, position) () ->
         let nodes = bootstrap rng desc all_addrs in
         ignore (tr.start d a ~position ~nodes))
       members);
  Obs.finish sp_start;
  if !Obs.enabled then
    Obs.finish ~attrs:[ ("members", string_of_int (List.length members)) ] sp_deploy;
  (members, !report)

(* {1 Log collection} *)

type log_record = {
  lr_time : float;
  lr_node : string;
  lr_level : Log.level;
  lr_msg : string;
}

(* Bounded — the paper's log service caps per-job storage; beyond the cap
   we keep counting (lines/bytes) but drop the text. *)
type logs = {
  mutable l_lines : int;
  mutable l_bytes : int;
  l_records : log_record Queue.t; (* arrival order = deterministic delivery order *)
  l_cap : int;
  mutable l_dropped : int;
}

let logs ~cap =
  { l_lines = 0; l_bytes = 0; l_records = Queue.create (); l_cap = cap; l_dropped = 0 }

let log_add l ~time ~level ~node msg =
  l.l_lines <- l.l_lines + 1;
  l.l_bytes <- l.l_bytes + String.length msg;
  if Queue.length l.l_records < l.l_cap then
    Queue.add { lr_time = time; lr_node = node; lr_level = level; lr_msg = msg } l.l_records
  else l.l_dropped <- l.l_dropped + 1

let log_sink l = Log.Forward (log_add l)
let log_lines l = l.l_lines
let log_bytes l = l.l_bytes
let log_dropped l = l.l_dropped
let log_records l = List.of_seq (Queue.to_seq l.l_records)

(* L records share the trace's JSONL framing so one file (or a cat of the
   two) replays the run: sort by "t" and logs interleave with spans. *)
let logs_jsonl l =
  let buf = Buffer.create 4096 in
  Queue.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf {|{"t":%.6f,"ev":"L","node":%s,"level":"%s","msg":%s}|} r.lr_time
           (Obs.json_string r.lr_node)
           (Log.level_to_string r.lr_level)
           (Obs.json_string r.lr_msg));
      Buffer.add_char buf '\n')
    l.l_records;
  Buffer.contents buf

let dump_logs l ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (logs_jsonl l))
