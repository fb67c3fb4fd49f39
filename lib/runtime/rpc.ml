module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Obs = Splay_obs.Obs

type error = Timeout | Remote of string | Network of string

let error_to_string = function
  | Timeout -> "timeout"
  | Remote m -> "remote error: " ^ m
  | Network m -> "network error: " ^ m

exception Rpc_error of error

type options = { timeout : float; retries : int; backoff : float; backoff_jitter : float }

let default_options = { timeout = 120.0; retries = 0; backoff = 0.0; backoff_jitter = 0.0 }
let ping_options = { timeout = 5.0; retries = 0; backoff = 0.0; backoff_jitter = 0.0 }

(* Observability sites. One span per logical call (retries included) with
   the outcome attached on finish; the serve side gets its own span so
   handler service time is separable from network time. *)
let c_calls = Obs.counter "rpc.calls"
let c_notifies = Obs.counter "rpc.notifies"
let c_timeouts = Obs.counter "rpc.timeouts"
let c_retries = Obs.counter "rpc.retries"
let c_served = Obs.counter "rpc.served"
let h_latency = Obs.histogram "rpc.latency"
let h_serve_time = Obs.histogram "rpc.serve_time"
let h_bytes = Obs.histogram "rpc.request_bytes"

(* {2 Procedures}

   A procedure is its name, its argument list, its result type and a type
   witness. The untyped instance [values] is the one descriptor every
   [add_handler] handler and every decoded message shares. *)

type 'a args = 'a Env.rpc_args
type ('a, 'b) proc = ('a, 'b) Env.rpc_proc

let wrong_arity n = raise (Codec.Parse_error (Printf.sprintf "expected %d argument(s)" n))

let no_args : unit args =
  {
    size = (fun () -> 0);
    to_values = (fun () -> []);
    of_values = (function [] -> () | _ -> wrong_arity 0);
  }

let arg (t : 'a Codec.ty) : 'a args =
  {
    size = t.size;
    to_values = (fun x -> [ t.to_value x ]);
    of_values = (function [ v ] -> t.of_value v | _ -> wrong_arity 1);
  }

let args2 (t1 : 'a Codec.ty) (t2 : 'b Codec.ty) : ('a * 'b) args =
  {
    size = (fun (a, b) -> t1.size a + t2.size b);
    to_values = (fun (a, b) -> [ t1.to_value a; t2.to_value b ]);
    of_values = (function [ a; b ] -> (t1.of_value a, t2.of_value b) | _ -> wrong_arity 2);
  }

let args3 (t1 : 'a Codec.ty) (t2 : 'b Codec.ty) (t3 : 'c Codec.ty) : ('a * 'b * 'c) args =
  {
    size = (fun (a, b, c) -> t1.size a + t2.size b + t3.size c);
    to_values = (fun (a, b, c) -> [ t1.to_value a; t2.to_value b; t3.to_value c ]);
    of_values =
      (function [ a; b; c ] -> (t1.of_value a, t2.of_value b, t3.of_value c) | _ -> wrong_arity 3);
  }

let proc name args result : (_, _) proc = { name; args; result; id = Type.Id.make () }

let rec values_size acc = function
  | [] -> acc
  | v :: rest -> values_size (acc + Codec.encoded_size v) rest

(* A reply reads only the descriptor's types, never its name; a decoded
   request names its procedure with [{ values with name }]. *)
let values : (Codec.value list, Codec.value) proc =
  {
    name = "";
    args = { size = values_size 0; to_values = Fun.id; of_values = Fun.id };
    result = Codec.value;
    id = Type.Id.make ();
  }

let p_ping = proc "__ping" no_args Codec.unit

(* A value of one procedure's types as the same message of another's:
   itself when the two are provably the same types (always, in one
   simulation, unless an [add_handler] handler serves a typed call), else
   through its tree (a message decoded from the wire carries the untyped
   descriptor, and the handler's or the caller's types parse it). *)
let cast_args : type a b c d. (a, b) proc -> (c, d) proc -> a -> c =
 fun src dst x ->
  match Type.Id.provably_equal src.id dst.id with
  | Some Type.Equal -> x
  | None -> dst.args.of_values (src.args.to_values x)

let cast_result : type a b c d. (a, b) proc -> (c, d) proc -> b -> d =
 fun src dst x ->
  match Type.Id.provably_equal src.id dst.id with
  | Some Type.Equal -> x
  | None -> dst.result.of_value (src.result.to_value x)

(* The request envelope carries the caller's trace context ([Obs.null_ctx]
   when tracing is off): the serve span on the callee is created as its
   child, which is what stitches one logical request into a single causal
   trace across nodes. A negative [rid] marks a one-way request
   ({!notify}): the callee runs the handler but sends no reply. A reply
   carries the procedure of the handler that produced it. *)
type Net.payload +=
  | Request : { rid : int; proc : ('a, 'b) proc; args : 'a; ctx : Obs.ctx } -> Net.payload
  | Reply : { rid : int; proc : ('a, 'b) proc; result : ('b, string) result } -> Net.payload

let request_size (p : _ proc) args = 32 + String.length p.name + p.args.size args

let reply_size (type a b) (p : (a, b) proc) : (b, string) result -> int = function
  | Ok v -> 32 + p.result.size v
  | Error m -> 32 + String.length m

let handler_name = function Env.Handler (p, _) -> p.name | Env.Named (n, _) -> n

(* Last registration wins: any previous binding for the name is dropped,
   so a handler can be re-registered (e.g. on reconfiguration) without
   leaking the old one or shadowing it. An instance registers 1-10
   procedures, so a list scan beats hashing and costs no table. *)
let register env h =
  let name = handler_name h in
  let named h = String.equal (handler_name h) name in
  let hs = env.Env.rpc_handlers in
  env.Env.rpc_handlers <-
    h :: (if List.exists named hs then List.filter (fun h -> not (named h)) hs else hs)

let add_handler env name h = register env (Env.Named (name, h))

(* Every bound endpoint answers [__ping] ({!p_ping}) unless the app binds
   that name itself: an implicit last binding rather than a list entry
   per instance. *)
let ping_handler = Some (Env.Handler (p_ping, Fun.id))

let rec find_handler name = function
  | [] -> if String.equal name "__ping" then ping_handler else None
  | h :: rest -> if String.equal (handler_name h) name then Some h else find_handler name rest

let run : type a b c d. (a, b) proc -> a -> (c, d) proc -> (c -> d) -> (d, string) result =
 fun p args hp f ->
  try Ok (f (cast_args p hp args)) with
  | Engine.Process_killed as e -> raise e
  | e -> Error (Printexc.to_string e)

(* The serve side's closing bookkeeping and, for a two-way request, the
   reply, which carries the handler's procedure. Inlined, so the start
   time stays an unboxed float. *)
let[@inline] served (type c d) env ~src ~rid ~t0 sp (hp : (c, d) proc) (result : (d, string) result)
    =
  Obs.incr c_served;
  if !Obs.enabled || !Obs.metrics_enabled then
    Obs.observe h_serve_time ((Engine.clock (Env.engine env)).v -. t0);
  if !Obs.enabled then
    Obs.finish ~attrs:[ ("outcome", match result with Ok _ -> "ok" | Error _ -> "error") ] sp;
  if rid >= 0 then
    try
      Sb_socket.send env ~dst:src ~size:(reply_size hp result) (Reply { rid; proc = hp; result })
    with Sb_socket.Network_error _ -> ()

let serve env ~src = function
  | Request { rid; proc; args; ctx } -> (
      let t0 = (Engine.clock (Env.engine env)).v in
      let sp =
        if !Obs.enabled then
          Obs.span ~parent:ctx
            ~attrs:[ ("proc", proc.name); ("node", Addr.to_string env.Env.me) ]
            "rpc.serve"
        else Obs.null_span
      in
      match find_handler proc.name env.Env.rpc_handlers with
      | None ->
          served env ~src ~rid ~t0 sp values
            (Error (Printf.sprintf "unknown procedure %S" proc.name))
      | Some (Env.Handler (hp, f)) -> served env ~src ~rid ~t0 sp hp (run proc args hp f)
      | Some (Env.Named (_, f)) -> served env ~src ~rid ~t0 sp values (run proc args values f))
  | _ -> ()

let dispatch env ~src payload =
  match payload with
  | Request { proc; _ } ->
      (* The fiber name only surfaces in traces and crash reports; skip the
         per-request string concat when tracing is off (the engine names
         anonymous procs lazily, so passing [None] allocates nothing). *)
      let pname = if !Obs.enabled then Some ("rpc:" ^ proc.name) else None in
      ignore (Env.thread env ?name:pname (fun () -> serve env ~src payload))
  | Reply { rid; _ } -> (
      (* [rpc_pending_opt]: a node that never issued a call has no table,
         and a stray reply should not make it allocate one *)
      match Env.rpc_pending_opt env with
      | None -> ()
      | Some pending -> (
          match Hashtbl.find pending rid with
          | exception Not_found -> () (* reply after timeout: dropped, as with a late TCP answer *)
          | w ->
              Hashtbl.remove pending rid;
              Engine.wake w payload))
  | _ -> () (* not RPC traffic; other layers may share the port *)

let ensure_bound env =
  if not env.Env.rpc_bound then begin
    env.Env.rpc_bound <- true;
    ignore (Sb_socket.udp env ~port:env.Env.me.Addr.port (dispatch env))
  end

let handle env p f =
  ensure_bound env;
  register env (Env.Handler (p, f))

let client env = ensure_bound env

(* A local send failure settles the caller's waker the way a reply does,
   with an error string tagged "net:"; decoded back into the variant
   here. Every other string is the remote handler's. *)
let decode_error m =
  match String.index_opt m ':' with
  | Some i when String.sub m 0 i = "net" -> Network (String.sub m (i + 1) (String.length m - i - 1))
  | _ -> Remote m

(* The caller's result out of the reply that settled its waker. *)
let reply_result (type a b) (p : (a, b) proc) : Net.payload -> (b, error) result = function
  | Reply { proc = hp; result = Ok v; _ } -> (
      match cast_result hp p v with
      | v -> Ok v
      | exception Codec.Parse_error m -> Error (Remote m))
  | Reply { result = Error m; _ } -> Error (decode_error m)
  | _ -> Error (Remote "not a reply") (* only replies settle a call *)

(* One wire attempt: send the request, then park on the pending-table
   entry — the caller's waker — until a reply, the timeout or a local
   send failure settles it. Whichever way the wait ends, the entry leaves
   the table before the caller moves on. *)
let attempt env dst ~timeout ~size p args =
  let rid = env.Env.rpc_next_rid in
  env.Env.rpc_next_rid <- rid + 1;
  let pending = Env.rpc_pending env in
  let w = Engine.waker (Env.engine env) in
  Hashtbl.replace pending rid w;
  (try Sb_socket.send env ~dst ~size (Request { rid; proc = p; args; ctx = Obs.current () })
   with Sb_socket.Network_error m ->
     if Hashtbl.mem pending rid then begin
       Hashtbl.remove pending rid;
       Engine.wake w (Reply { rid; proc = p; result = Error ("net:" ^ m) })
     end);
  Engine.timeout w timeout;
  match Engine.await w with
  | reply -> reply_result p reply
  | exception Engine.Timed_out ->
      Hashtbl.remove pending rid;
      Error Timeout
  | exception (Engine.Process_killed as e) ->
      Hashtbl.remove pending rid;
      raise e

let outcome_label = function
  | Ok _ -> "ok"
  | Error Timeout -> "timeout"
  | Error (Remote _) -> "remote"
  | Error (Network _) -> "network"

(* Exponential backoff before retry [n] (1-based): backoff * 2^(n-1),
   stretched by a seeded jitter fraction drawn from the instance's
   dedicated RPC stream. The default backoff = 0 takes no delay and
   consumes no RNG, so fixed-seed traces without the policy stay
   byte-identical. *)
let retry_delay env options n =
  if options.backoff <= 0.0 then 0.0
  else begin
    let base = options.backoff *. Float.of_int (1 lsl min (n - 1) 30) in
    if options.backoff_jitter <= 0.0 then base
    else base *. (1.0 +. (options.backoff_jitter *. Rng.float (Env.rpc_rng env) 1.0))
  end

(* The call's closing bookkeeping, once its last attempt ([attempts] in
   all) has ended. *)
let close_call env ~t0 ~size sp result attempts =
  Obs.incr c_calls;
  (match result with Error Timeout -> Obs.incr c_timeouts | _ -> ());
  if !Obs.enabled || !Obs.metrics_enabled then begin
    Obs.observe h_latency (Engine.now (Env.engine env) -. t0);
    Obs.observe h_bytes (Float.of_int size)
  end;
  if !Obs.enabled then
    Obs.finish
      ~attrs:[ ("outcome", outcome_label result); ("attempts", string_of_int attempts) ]
      sp;
  result

(* Attempt [n] (0-based) of a call and, on a transient failure (Timeout,
   local Network refusal), the retries the policy allows; a Remote error is
   the handler's answer and is final. The first attempt runs directly
   under the call span; each retry gets its own child span numbered with
   the attempt and tagged with the backoff delay it waited, so the serve
   spans it causes are distinguishable from the original attempt's. A
   top-level function over explicit arguments, so a call allocates no
   closure around its state. *)
let rec attempts env dst ~options ~timeout ~size ~t0 sp p args n ~waited =
  let sp_retry =
    if n > 0 && !Obs.enabled then
      Obs.span
        ~attrs:[ ("attempt", string_of_int n); ("delay", Printf.sprintf "%.6f" waited) ]
        "rpc.retry"
    else Obs.null_span
  in
  let r = attempt env dst ~timeout ~size p args in
  if !Obs.enabled then Obs.finish ~attrs:[ ("outcome", outcome_label r) ] sp_retry;
  match r with
  | Error (Timeout | Network _) when n < options.retries ->
      Obs.incr c_retries;
      let d = retry_delay env options (n + 1) in
      if d > 0.0 then Engine.sleep d;
      attempts env dst ~options ~timeout ~size ~t0 sp p args (n + 1) ~waited:d
  | r -> close_call env ~t0 ~size sp r (n + 1)

(* The one request path: every call goes through here with its
   procedure. The [?timeout] shorthand and the [?options] policy compose:
   an explicit timeout overrides the policy's ([base] when none is
   given), so a policy can still ride along for retries/backoff. The
   deadline travels on its own, so the shorthand builds no options record
   per call. *)
let call_core ~base env dst ?timeout ?options (p : (_, _) proc) args =
  let options = match options with Some o -> o | None -> base in
  let timeout = match timeout with Some t -> t | None -> options.timeout in
  ensure_bound env;
  let size = request_size p args in
  let t0 = Engine.now (Env.engine env) in
  let sp =
    if !Obs.enabled then
      Obs.span
        ~attrs:
          [
            ("proc", p.name);
            ("src", Addr.to_string env.Env.me);
            ("dst", Addr.to_string dst);
            ("bytes", string_of_int size);
          ]
        "rpc.call"
    else Obs.null_span
  in
  attempts env dst ~options ~timeout ~size ~t0 sp p args 0 ~waited:0.0

let invoke env dst ?timeout ?options p arg =
  call_core ~base:default_options env dst ?timeout ?options p arg

let ping env ?timeout ?options p dst =
  match call_core ~base:ping_options env dst ?timeout ?options p () with
  | Ok _ -> true
  | Error _ -> false

(* One-way call: fire the request and return. No reply is expected (the
   callee skips it for negative rids), so no pending-table entry, no
   timer, and — decisively for large fan-outs — no fiber parked waiting.
   A blocked [invoke] caller costs ~1.3 kB of stack until the reply; a
   million-node flood with six outstanding forwards per node would hold
   gigabytes in parked fibers. Delivery inherits exactly the network's
   guarantees (loss, partitions, dead hosts): fire-and-forget. A fan-out
   builds one immutable request, sized once, that every in-flight copy
   shares. *)
let notify env dsts p args =
  if dsts <> [] then begin
    ensure_bound env;
    let size = request_size p args in
    let req = Request { rid = -1; proc = p; args; ctx = Obs.current () } in
    List.iter
      (fun dst ->
        Obs.incr c_notifies;
        try Sb_socket.send env ~dst ~size req with Sb_socket.Network_error _ -> ())
      dsts
  end

(* Wire serialization of the RPC envelope, for transports that leave the
   process (the live backend's inter-daemon TCP tunnels): the one place a
   message becomes a tree, through the procedure it travels with. A
   decoded message carries the untyped descriptor; the handler's types
   (for a request) or the caller's (for a reply) parse it on arrival. The trace context
   travels explicitly — it is what stitches one logical request into a
   single causal trace across real processes. *)

let payload_to_value = function
  | Request { rid; proc; args; ctx } ->
      Some
        (Codec.Assoc
           [
             ("k", Codec.String "q");
             ("rid", Codec.Int rid);
             ("proc", Codec.String proc.name);
             ("args", Codec.List (proc.args.to_values args));
             ("tid", Codec.Int ctx.Obs.tid);
             ("sid", Codec.Int ctx.Obs.sid);
           ])
  | Reply { rid; proc; result = Ok v } ->
      Some
        (Codec.Assoc
           [ ("k", Codec.String "p"); ("rid", Codec.Int rid); ("ok", proc.result.to_value v) ])
  | Reply { rid; result = Error m; _ } ->
      Some
        (Codec.Assoc [ ("k", Codec.String "p"); ("rid", Codec.Int rid); ("err", Codec.String m) ])
  | _ -> None (* not RPC traffic: other payload kinds have no wire form *)

let payload_of_value v =
  match Codec.to_string (Codec.member "k" v) with
  | "q" ->
      Request
        {
          rid = Codec.to_int (Codec.member "rid" v);
          proc = { values with name = Codec.to_string (Codec.member "proc" v) };
          args = Codec.to_list (Codec.member "args" v);
          ctx =
            {
              Obs.tid = Codec.to_int (Codec.member "tid" v);
              sid = Codec.to_int (Codec.member "sid" v);
            };
        }
  | "p" ->
      let result =
        match Codec.member "ok" v with
        | ok -> Ok ok
        | exception Codec.Parse_error _ -> Error (Codec.to_string (Codec.member "err" v))
      in
      Reply { rid = Codec.to_int (Codec.member "rid" v); proc = values; result }
  | k -> raise (Codec.Parse_error (Printf.sprintf "unknown rpc payload kind %S" k))

let calls_issued env = env.Env.rpc_next_rid
