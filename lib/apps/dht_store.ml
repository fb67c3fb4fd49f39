module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Crypto = Splay_runtime.Crypto
module Sandbox = Splay_runtime.Sandbox
module Rng = Splay_sim.Rng
module Ivar = Splay_sim.Ivar

type config = {
  replicas : int;
  republish_interval : float;
  entry_ttl : float;
  rpc_timeout : float;
  serve_cost : float;
  batching : bool;
  p2c : bool;
  admission : bool;
  token_rate : float;
  token_burst : float;
  slo_budget : float;
}

let default_config =
  {
    replicas = 3;
    republish_interval = 30.0;
    entry_ttl = 120.0;
    rpc_timeout = 10.0;
    serve_cost = 0.0;
    batching = false;
    p2c = false;
    admission = false;
    token_rate = 2000.0;
    token_burst = 64.0;
    slo_budget = 0.25;
  }

type entry = { value : string; mutable refreshed_at : float }

(* One unit of owner-side work. A [Fetch] carries every reader waiting on
   the key: under [batching], concurrent gets for the same key coalesce
   into one service slot and the reply fans out to all of them. *)
type job =
  | Store of { key : string; value : string; done_ : unit Ivar.t }
  | Fetch of { key : string; waiters : string option Ivar.t list ref }

(* [store], [inflight] and [ewma] are created at their first insert, at
   the initial size they always had: most nodes of a large ring never
   coalesce a read or estimate an RTT. *)
type t = {
  cfg : config;
  p : Pastry.node;
  env : Env.t;
  mutable store : (string, entry) Hashtbl.t option;
  (* owner-side serving state (active only when [serve_cost > 0]) *)
  queue : job Queue.t;
  mutable worker : bool;
  mutable inflight : (string, string option Ivar.t list ref) Hashtbl.t option;
  mutable tokens : float;
  mutable refilled_at : float;
  (* client-side replica selection state *)
  mutable ewma : (int, float) Hashtbl.t option;
  mutable owners : (string, Node.t option array) Hashtbl.t option;
      (* read-path owner memo: key -> the owner a route last named for each
         replica; created on the first route, so pure owners allocate none *)
  c_rng : Rng.t;
  (* serving counters (observability) *)
  mutable n_served : int;
  mutable n_shed : int;
  mutable n_batched : int;
}

let find tbl k = match tbl with Some h -> Hashtbl.find_opt h k | None -> None
let remove tbl k = Option.iter (fun h -> Hashtbl.remove h k) tbl

(* [tbl], created by [set t] at its first insert. [set] is a closed
   function, so the call allocates nothing once the table exists. *)
let created t tbl ~size set =
  match tbl with
  | Some h -> h
  | None ->
      let h = Hashtbl.create size in
      set t (Some h);
      h

let stored_entries t = match t.store with Some h -> Hashtbl.length h | None -> 0
let served_count t = t.n_served
let shed_count t = t.n_shed
let batched_count t = t.n_batched

let now t = Env.now t.env

let replica_id t ~key i =
  Crypto.hash_to_id (Printf.sprintf "%s#%d" key i) ~bits:(Pastry.config_of t.p).Pastry.bits

(* Local (owner-side) operations, exposed over RPC. *)

let store_local t ~key ~value =
  (match find t.store key with
  | Some old ->
      Sandbox.free t.env.Env.sandbox (String.length old.value);
      remove t.store key
  | None -> ());
  (try Sandbox.alloc t.env.Env.sandbox (String.length value)
   with Sandbox.Violation _ -> ());
  Hashtbl.replace
    (created t t.store ~size:32 (fun t s -> t.store <- s))
    key
    { value; refreshed_at = now t }

(* Warm-start insertion for benches that place replicas directly from the
   full membership instead of routing [replicas * keys] puts through the
   overlay first. *)
let preload t ~key ~value = store_local t ~key ~value

let fetch_local t ~key =
  match find t.store key with
  | Some e when now t -. e.refreshed_at <= t.cfg.entry_ttl -> Some e.value
  | Some e ->
      remove t.store key;
      Sandbox.free t.env.Env.sandbox (String.length e.value);
      None
  | None -> None

let delete_local t ~key =
  match find t.store key with
  | Some e ->
      remove t.store key;
      Sandbox.free t.env.Env.sandbox (String.length e.value)
  | None -> ()

(* {2 Owner-side serving fast path}

   With [serve_cost > 0] every store/fetch costs service time at the
   owner, so requests queue. The queue is drained by a single worker
   fiber, spawned lazily on the empty->nonempty transition and exiting
   when the queue drains — an idle owner holds no live fiber and the
   engine's event queue empties cleanly at end of run.

   Admission control ([admission]) sheds work at enqueue time with a
   distinguished fast-reject reply instead of letting the queue grow
   without bound: a token bucket caps the sustained accept rate, and the
   queue-delay budget ([slo_budget]) rejects requests that would wait
   longer than the SLO even if accepted — overload degrades into fast
   rejects the client can retry elsewhere, not into collapse. *)

let admit t =
  if not t.cfg.admission then true
  else begin
    let n = now t in
    t.tokens <-
      Float.min t.cfg.token_burst (t.tokens +. ((n -. t.refilled_at) *. t.cfg.token_rate));
    t.refilled_at <- n;
    let backlog = Float.of_int (Queue.length t.queue) *. t.cfg.serve_cost in
    if t.tokens >= 1.0 && backlog <= t.cfg.slo_budget then begin
      t.tokens <- t.tokens -. 1.0;
      true
    end
    else begin
      t.n_shed <- t.n_shed + 1;
      false
    end
  end

let service_pause t =
  let m =
    Testbed.service_mult (Net.testbed t.env.Env.net) (Pastry.self_node t.p).Node.addr.Addr.host
  in
  Env.sleep (t.cfg.serve_cost *. m)

let rec drain t =
  match Queue.take_opt t.queue with
  | None -> t.worker <- false
  | Some job ->
      (match job with
      | Fetch { key; waiters } ->
          (* unhook before the service pause: gets arriving while this one
             is in service start the next batch rather than missing the
             reply fan-out *)
          remove t.inflight key;
          service_pause t;
          let v = fetch_local t ~key in
          let ws = !waiters in
          let k = List.length ws in
          t.n_served <- t.n_served + k;
          if k > 1 then t.n_batched <- t.n_batched + (k - 1);
          List.iter (fun iv -> Ivar.fill iv v) ws
      | Store { key; value; done_ } ->
          service_pause t;
          store_local t ~key ~value;
          t.n_served <- t.n_served + 1;
          Ivar.fill done_ ());
      drain t

let kick t =
  if not t.worker then begin
    t.worker <- true;
    ignore (Env.thread t.env ~name:"kv-worker" (fun () -> drain t))
  end

(* Blocking enqueue of a fetch; [`Shed] is the fast-reject path. *)
let queue_fetch t ~key =
  match (if t.cfg.batching then find t.inflight key else None) with
  | Some ws ->
      (* coalesce: ride the already-queued service slot for this key *)
      let iv = Ivar.create () in
      ws := iv :: !ws;
      `Value (Ivar.read iv)
  | None ->
      if not (admit t) then `Shed
      else begin
        let iv = Ivar.create () in
        let ws = ref [ iv ] in
        if t.cfg.batching then
          Hashtbl.replace (created t t.inflight ~size:16 (fun t s -> t.inflight <- s)) key ws;
        Queue.push (Fetch { key; waiters = ws }) t.queue;
        kick t;
        `Value (Ivar.read iv)
      end

let queue_store t ~key ~value =
  if not (admit t) then `Shed
  else begin
    let iv = Ivar.create () in
    Queue.push (Store { key; value; done_ = iv }) t.queue;
    kick t;
    Ivar.read iv;
    `Stored
  end

(* {2 The RPC surface}

   A store answers [None] when it stored the value and [Some false] when
   admission control shed it: on the wire, [null] and [false]. A fetch
   answers the value, a miss or a shed: a string, [null] or [false]. *)

let fetched =
  let to_value = function
    | `Value v -> Codec.String v
    | `Miss -> Codec.Null
    | `Shed -> Codec.Bool false
  in
  {
    Codec.size =
      (function `Value v -> Codec.string.size v | r -> Codec.encoded_size (to_value r));
    to_value;
    of_value = (function Codec.String v -> `Value v | Codec.Bool false -> `Shed | _ -> `Miss);
  }

let p_store = Rpc.proc "kv.store" (Rpc.args2 Codec.string Codec.string) (Codec.option Codec.bool)
let p_fetch = Rpc.proc "kv.fetch" (Rpc.arg Codec.string) fetched

(* {2 Client-side operations} *)

(* {3 Owner memo}

   Routing a replica id costs a multi-hop [Pastry.lookup]; the owner it
   names changes only when the ring does. Every route's answer is kept per
   (key, replica), keyed by the key string so a hit skips the SHA-1 of
   [replica_id] too. Reads trust the memo and repair it on a miss or an
   error; writes always route, so data lands at the current owner under
   churn, and refresh the memo with what they find. *)

let memoized t ~key i =
  match t.owners with
  | None -> None
  | Some m -> ( match Hashtbl.find_opt m key with Some a -> a.(i) | None -> None)

let rec remember t ~key i owner =
  match t.owners with
  | None ->
      if Option.is_some owner then begin
        t.owners <- Some (Hashtbl.create 64);
        remember t ~key i owner
      end
  | Some m -> (
      match Hashtbl.find_opt m key with
      | Some a -> a.(i) <- owner
      | None when Option.is_some owner ->
          let a = Array.make t.cfg.replicas None in
          a.(i) <- owner;
          Hashtbl.add m key a
      | None -> ())

(* Route to the owner of one replica and remember (or forget) it. *)
let route t ~key i =
  let owner = Option.map fst (Pastry.lookup t.p (replica_id t ~key i)) in
  remember t ~key i owner;
  owner

(* EWMA of observed fetch round-trips per host — the latency estimate for
   power-of-two-choices. An unknown host estimates 0 so fresh replicas get
   explored. *)
let observe_rtt t addr dt =
  let v =
    match find t.ewma addr.Addr.host with
    | None -> dt
    | Some p -> (0.8 *. p) +. (0.2 *. dt)
  in
  Hashtbl.replace (created t t.ewma ~size:16 (fun t s -> t.ewma <- s)) addr.Addr.host v

let estimate t addr = Option.value ~default:0.0 (find t.ewma addr.Addr.host)

let put_r t ~key ~value =
  let acks = ref 0 and sheds = ref 0 in
  for i = 0 to t.cfg.replicas - 1 do
    Option.iter
      (fun owner ->
        if Node.equal owner (Pastry.self_node t.p) then begin
          store_local t ~key ~value;
          incr acks
        end
        else
          match Rpc.invoke t.env owner.Node.addr ~timeout:t.cfg.rpc_timeout p_store (key, value) with
          | Ok (Some false) ->
              (* shed by admission control: no ack, but the owner is
                 healthy — do not feed the failure detector *)
              incr sheds
          | Ok _ -> incr acks
          | Error _ -> Pastry.report_failure t.p owner)
      (route t ~key i)
  done;
  (!acks, !sheds)

let put t ~key ~value = fst (put_r t ~key ~value)

(* Fetch from one resolved owner. A shed reply arrives fast but signals
   overload: it is penalized in the EWMA by a full SLO budget so
   power-of-two-choices steers the next draws away from the hot node. An
   RPC error reports the owner to Pastry and reads as a miss. *)
let fetch_from_r t ~key owner =
  if Node.equal owner (Pastry.self_node t.p) then
    match fetch_local t ~key with Some v -> `Value v | None -> `Miss
  else begin
    let t0 = now t in
    match Rpc.invoke t.env owner.Node.addr ~timeout:t.cfg.rpc_timeout p_fetch key with
    | Ok `Shed ->
        observe_rtt t owner.Node.addr (now t -. t0 +. t.cfg.slo_budget);
        `Shed
    | Ok r ->
        observe_rtt t owner.Node.addr (now t -. t0);
        r
    | Error _ ->
        Pastry.report_failure t.p owner;
        `Miss
  end

(* Read replica [i] at its resolved owner ([memo_hit]: the memo named
   it). A memoized owner that misses or fails is re-resolved with one
   route, which replaces its entry; when the route names the same owner
   again it already answered, so it is not asked twice. A shed leaves the
   entry: that owner is healthy. *)
let fetch_replica t ~key i owner ~memo_hit =
  match fetch_from_r t ~key owner with
  | `Miss when memo_hit -> (
      match route t ~key i with
      | Some o when not (Node.equal o owner) -> fetch_from_r t ~key o
      | _ -> `Miss)
  | r -> r

let est t n = if Node.equal n (Pastry.self_node t.p) then 0.0 else estimate t n.Node.addr

(* The read order of a get, one replica per call, over explicit
   arguments so that a get parked in its RPC keeps no closure alive:
   first the pick [p1] at owner [o1] (memo hit [h1]), then the pick [p2]
   (a pick index of -1 is none; [p2] moves up once [p1] is read), then
   replicas [i], [i + 1], ... resolved in turn (memo, else a route),
   skipping [skip1] and [skip2]. [shed]: a read so far was shed, so "no
   value" because of overload reads differently from a clean miss. *)
let rec read_next t ~key ~shed ~p1 ~o1 ~h1 ~p2 ~o2 ~h2 ~skip1 ~skip2 i =
  if p1 >= 0 then
    match fetch_replica t ~key p1 o1 ~memo_hit:h1 with
    | `Value _ as v -> v
    | (`Shed | `Miss) as r ->
        let shed = match r with `Shed -> true | `Miss -> shed in
        read_next t ~key ~shed ~p1:p2 ~o1:o2 ~h1:h2 ~p2:(-1) ~o2 ~h2 ~skip1 ~skip2 i
  else if i >= t.cfg.replicas then if shed then `Shed else `Miss
  else if i = skip1 || i = skip2 then
    read_next t ~key ~shed ~p1 ~o1 ~h1 ~p2 ~o2 ~h2 ~skip1 ~skip2 (i + 1)
  else
    match memoized t ~key i with
    | Some o -> read_next t ~key ~shed ~p1:i ~o1:o ~h1:true ~p2 ~o2 ~h2 ~skip1 ~skip2 (i + 1)
    | None -> (
        match route t ~key i with
        | Some o -> read_next t ~key ~shed ~p1:i ~o1:o ~h1:false ~p2 ~o2 ~h2 ~skip1 ~skip2 (i + 1)
        | None -> read_next t ~key ~shed ~p1 ~o1 ~h1 ~p2 ~o2 ~h2 ~skip1 ~skip2 (i + 1))

(* p2c with replica [i] resolved to [oa]: replica [j] is a candidate only
   when the memo already names its owner, so a p2c get never routes more
   than a baseline get. The candidates are read estimated-closer /
   less-loaded first, then the replicas not yet tried in order. *)
let read_p2c t ~key ~i ~j oa ~ha =
  match memoized t ~key j with
  | Some ob when est t ob < est t oa ->
      read_next t ~key ~shed:false ~p1:j ~o1:ob ~h1:true ~p2:i ~o2:oa ~h2:ha ~skip1:i ~skip2:j 0
  | Some ob ->
      read_next t ~key ~shed:false ~p1:i ~o1:oa ~h1:ha ~p2:j ~o2:ob ~h2:true ~skip1:i ~skip2:j 0
  | None ->
      read_next t ~key ~shed:false ~p1:i ~o1:oa ~h1:ha ~p2:(-1) ~o2:oa ~h2:ha ~skip1:i ~skip2:(-1) 0

let get_r t ~key =
  let r = t.cfg.replicas in
  let self = Pastry.self_node t.p in
  if t.cfg.p2c && r >= 2 then begin
    (* p2c samples two distinct replicas but routes at most the first *)
    let i = Rng.int t.c_rng r in
    let j = (i + 1 + Rng.int t.c_rng (r - 1)) mod r in
    match memoized t ~key i with
    | Some oa -> read_p2c t ~key ~i ~j oa ~ha:true
    | None -> (
        match route t ~key i with
        | Some oa -> read_p2c t ~key ~i ~j oa ~ha:false
        | None -> (
            match memoized t ~key j with
            | Some ob ->
                read_next t ~key ~shed:false ~p1:j ~o1:ob ~h1:true ~p2:(-1) ~o2:ob ~h2:true ~skip1:i
                  ~skip2:j 0
            | None ->
                read_next t ~key ~shed:false ~p1:(-1) ~o1:self ~h1:false ~p2:(-1) ~o2:self ~h2:false
                  ~skip1:i ~skip2:(-1) 0))
  end
  else
    read_next t ~key ~shed:false ~p1:(-1) ~o1:self ~h1:false ~p2:(-1) ~o2:self ~h2:false ~skip1:(-1)
      ~skip2:(-1) 0

let get t ~key = match get_r t ~key with `Value v -> Some v | `Shed | `Miss -> None

(* Republish: push every held entry back towards the current owners of its
   replicas; drop entries nobody has refreshed within the TTL. The churned
   ring converges to holding each value at its live owners. *)
let republish t =
  let entries =
    match t.store with Some h -> Hashtbl.fold (fun k e acc -> (k, e) :: acc) h [] | None -> []
  in
  List.iter
    (fun (key, e) ->
      if now t -. e.refreshed_at > t.cfg.entry_ttl then delete_local t ~key
      else
        ignore (put t ~key ~value:e.value))
    entries

let create ?(config = default_config) p =
  let env = Pastry.node_env p in
  let t =
    {
      cfg = config;
      p;
      env;
      store = None;
      queue = Queue.create ();
      worker = false;
      inflight = None;
      tokens = config.token_burst;
      refilled_at = 0.0;
      ewma = None;
      owners = None;
      (* private stream derived from the node id, not split from env_rng:
         enabling p2c must not perturb any other component's draws *)
      c_rng = Rng.create ((Pastry.self_node p).Node.id lxor 0x2C00B5);
      n_served = 0;
      n_shed = 0;
      n_batched = 0;
    }
  in
  let serving = config.serve_cost > 0.0 in
  Rpc.handle env p_store (fun (key, value) ->
      if serving then
        match queue_store t ~key ~value with `Stored -> None | `Shed -> Some false
      else begin
        store_local t ~key ~value;
        None
      end);
  Rpc.handle env p_fetch (fun key ->
      let found = function Some v -> `Value v | None -> `Miss in
      if serving then
        match queue_fetch t ~key with `Value v -> found v | `Shed -> `Shed
      else found (fetch_local t ~key));
  if config.republish_interval > 0.0 then
    ignore (Env.periodic env config.republish_interval (fun () -> republish t));
  t
