module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Obs = Splay_obs.Obs

type error = Timeout | Remote of string | Network of string

let error_to_string = function
  | Timeout -> "timeout"
  | Remote m -> "remote error: " ^ m
  | Network m -> "network error: " ^ m

exception Rpc_error of error

type handler = Codec.value list -> Codec.value

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

(* The request envelope carries the caller's trace context ([Obs.null_ctx]
   when tracing is off): the serve span on the callee is created as its
   child, which is what stitches one logical request into a single causal
   trace across nodes. A negative [rid] marks a one-way request
   ({!notify}): the callee runs the handler but sends no reply. *)
type Net.payload +=
  | Request of { rid : int; proc : string; args : Codec.value list; ctx : Obs.ctx }
  | Reply of { rid : int; result : (Codec.value, string) result }

let request_size proc args =
  32 + String.length proc + List.fold_left (fun acc a -> acc + Codec.encoded_size a) 0 args

let reply_size = function
  | Ok v -> 32 + Codec.encoded_size v
  | Error m -> 32 + String.length m

(* Last registration wins: [Hashtbl.replace] drops any previous binding
   for [name], so a handler can be re-registered (e.g. on reconfiguration)
   without leaking the old one or shadowing it non-deterministically. *)
let add_handler env name h = Hashtbl.replace (Env.rpc_handlers env) name h

let send_reply env ~dst rid result =
  try Sb_socket.send env ~dst ~size:(reply_size result) (Reply { rid; result })
  with Sb_socket.Network_error _ -> ()

let dispatch env ~src payload =
  match payload with
  | Request { rid; proc; args; ctx } ->
      (* The fiber name only surfaces in traces and crash reports; skip the
         per-request string concat when tracing is off (the engine names
         anonymous procs lazily, so passing [None] allocates nothing). *)
      let name = if !Obs.enabled then Some ("rpc:" ^ proc) else None in
      ignore
        (Env.thread env ?name (fun () ->
             let eng = Env.engine env in
             let t0 = Engine.now eng in
             let sp =
               if !Obs.enabled then
                 Obs.span ~parent:ctx
                   ~attrs:[ ("proc", proc); ("node", Addr.to_string env.Env.me) ]
                   "rpc.serve"
               else Obs.null_span
             in
             let result =
               match Hashtbl.find_opt (Env.rpc_handlers env) proc with
               | None -> Error (Printf.sprintf "unknown procedure %S" proc)
               | Some h -> (
                   try Ok (h args) with
                   | Engine.Process_killed as e -> raise e
                   | e -> Error (Printexc.to_string e))
             in
             Obs.incr c_served;
             if !Obs.enabled || !Obs.metrics_enabled then
               Obs.observe h_serve_time (Engine.now eng -. t0);
             if !Obs.enabled then
               Obs.finish
                 ~attrs:
                   [ ("outcome", match result with Ok _ -> "ok" | Error _ -> "error") ]
                 sp;
             if rid >= 0 then send_reply env ~dst:src rid result))
  | Reply { rid; result } -> (
      (* [rpc_pending_opt]: a node that never issued a call has no table,
         and a stray reply should not make it allocate one *)
      match Env.rpc_pending_opt env with
      | None -> ()
      | Some pending -> (
          match Hashtbl.find_opt pending rid with
          | None -> () (* reply after timeout: dropped, as with a late TCP answer *)
          | Some resolve ->
              Hashtbl.remove pending rid;
              resolve result))
  | _ -> () (* not RPC traffic; other layers may share the port *)

let ensure_bound env =
  if not env.Env.rpc_bound then begin
    env.Env.rpc_bound <- true;
    add_handler env "__ping" (fun _ -> Codec.Null);
    ignore (Sb_socket.udp env ~port:env.Env.me.Addr.port (dispatch env))
  end

let server env handlers =
  ensure_bound env;
  List.iter (fun (name, h) -> add_handler env name h) handlers

let client env = ensure_bound env

(* Error transport through the string-typed pending table: tagged
   prefixes, decoded back into the variant here. *)
let decode_error m =
  match String.index_opt m ':' with
  | Some i when String.sub m 0 i = "net" -> Network (String.sub m (i + 1) (String.length m - i - 1))
  | _ when m = "timeout" -> Timeout
  | _ -> Remote m

(* One wire attempt: send the request, resolve on reply, timeout or local
   send failure. *)
let attempt env dst ~timeout ~size proc args =
  let rid = env.Env.rpc_next_rid in
  env.Env.rpc_next_rid <- rid + 1;
  let eng = Env.engine env in
  let pending = Env.rpc_pending env in
  let outcome =
    Engine.suspend (fun resolve ->
        Hashtbl.replace pending rid (fun r -> resolve (Ok r));
        (try Sb_socket.send env ~dst ~size (Request { rid; proc; args; ctx = Obs.current () })
         with Sb_socket.Network_error m ->
           (match Hashtbl.find_opt pending rid with
           | Some r ->
               Hashtbl.remove pending rid;
               r (Error ("net:" ^ m))
           | None -> ()));
        let timer =
          Engine.schedule eng ~delay:timeout (fun () ->
              match Hashtbl.find_opt pending rid with
              | Some r ->
                  Hashtbl.remove pending rid;
                  r (Error "timeout")
              | None -> ())
        in
        fun () ->
          Engine.cancel eng timer;
          Hashtbl.remove pending rid)
  in
  match outcome with Ok v -> Ok v | Error m -> Error (decode_error m)

let outcome_label = function
  | Ok _ -> "ok"
  | Error Timeout -> "timeout"
  | Error (Remote _) -> "remote"
  | Error (Network _) -> "network"

let a_call_core env dst ~options proc args =
  ensure_bound env;
  let size = request_size proc args in
  let eng = Env.engine env in
  let t0 = Engine.now eng in
  let sp =
    if !Obs.enabled then
      Obs.span
        ~attrs:
          [
            ("proc", proc);
            ("src", Addr.to_string env.Env.me);
            ("dst", Addr.to_string dst);
            ("bytes", string_of_int size);
          ]
        "rpc.call"
    else Obs.null_span
  in
  (* Retries cover the transient failures (Timeout, local Network refusal);
     a Remote error is the handler's answer and is final. The first attempt
     runs directly under the call span; each retry gets its own child span
     numbered with the attempt and tagged with the backoff delay it waited,
     so the serve spans it causes are distinguishable from the original
     attempt's. *)
  let retry_delay n =
    (* exponential backoff before retry [n] (1-based): backoff * 2^(n-1),
       stretched by a seeded jitter fraction drawn from the instance's
       dedicated RPC stream. The default backoff = 0 takes no delay and
       consumes no RNG, so fixed-seed traces without the policy stay
       byte-identical. *)
    if options.backoff <= 0.0 then 0.0
    else begin
      let base = options.backoff *. Float.of_int (1 lsl min (n - 1) 30) in
      if options.backoff_jitter <= 0.0 then base
      else base *. (1.0 +. (options.backoff_jitter *. Rng.float (Env.rpc_rng env) 1.0))
    end
  in
  let rec go n ~waited =
    let sp_retry =
      if n > 0 && !Obs.enabled then
        Obs.span
          ~attrs:[ ("attempt", string_of_int n); ("delay", Printf.sprintf "%.6f" waited) ]
          "rpc.retry"
      else Obs.null_span
    in
    let r = attempt env dst ~timeout:options.timeout ~size proc args in
    if !Obs.enabled then Obs.finish ~attrs:[ ("outcome", outcome_label r) ] sp_retry;
    match r with
    | Error (Timeout | Network _) when n < options.retries ->
        Obs.incr c_retries;
        let d = retry_delay (n + 1) in
        if d > 0.0 then Engine.sleep d;
        go (n + 1) ~waited:d
    | r -> (r, n + 1)
  in
  let result, attempts = go 0 ~waited:0.0 in
  Obs.incr c_calls;
  (match result with Error Timeout -> Obs.incr c_timeouts | _ -> ());
  if !Obs.enabled || !Obs.metrics_enabled then begin
    Obs.observe h_latency (Engine.now eng -. t0);
    Obs.observe h_bytes (Float.of_int size)
  end;
  if !Obs.enabled then
    Obs.finish
      ~attrs:[ ("outcome", outcome_label result); ("attempts", string_of_int attempts) ]
      sp;
  result

(* The [?timeout] shorthand and the [?options] policy compose: an explicit
   timeout overrides the policy's, so [a_call ~timeout] keeps meaning what
   it always did and a policy can still ride along for retries/backoff. *)
let resolve ~base ?timeout ?options () =
  match (timeout, options) with
  | None, None -> base
  | None, Some o -> o
  | Some t, None -> { base with timeout = t }
  | Some t, Some o -> { o with timeout = t }

let with_timeout timeout = { default_options with timeout }

let a_call env dst ?timeout ?options proc args =
  a_call_core env dst ~options:(resolve ~base:default_options ?timeout ?options ()) proc args

let call env dst ?timeout ?options proc args =
  match a_call env dst ?timeout ?options proc args with
  | Ok v -> v
  | Error e -> raise (Rpc_error e)

let ping env ?timeout ?options dst =
  let options = resolve ~base:ping_options ?timeout ?options () in
  match a_call_core env dst ~options "__ping" [] with Ok _ -> true | Error _ -> false

(* One-way call: fire the request and return. No reply is expected (the
   callee skips it for negative rids), so no pending-table entry, no
   timer, and — decisively for large fan-outs — no fiber parked waiting.
   A blocked [a_call] caller costs ~1.3 kB of stack until the reply; a
   million-node flood with six outstanding forwards per node would hold
   gigabytes in parked fibers. Delivery inherits exactly the network's
   guarantees (loss, partitions, dead hosts): fire-and-forget. *)
let notify env dst proc args =
  ensure_bound env;
  Obs.incr c_notifies;
  let size = request_size proc args in
  try Sb_socket.send env ~dst ~size (Request { rid = -1; proc; args; ctx = Obs.current () })
  with Sb_socket.Network_error _ -> ()

(* Wire serialization of the RPC envelope, for transports that leave the
   process (the live backend's inter-daemon TCP tunnels). The trace
   context travels explicitly — it is what stitches one logical request
   into a single causal trace across real processes. *)

let payload_to_value = function
  | Request { rid; proc; args; ctx } ->
      Some
        (Codec.Assoc
           [
             ("k", Codec.String "q");
             ("rid", Codec.Int rid);
             ("proc", Codec.String proc);
             ("args", Codec.List args);
             ("tid", Codec.Int ctx.Obs.tid);
             ("sid", Codec.Int ctx.Obs.sid);
           ])
  | Reply { rid; result = Ok v } ->
      Some (Codec.Assoc [ ("k", Codec.String "p"); ("rid", Codec.Int rid); ("ok", v) ])
  | Reply { rid; result = Error m } ->
      Some
        (Codec.Assoc [ ("k", Codec.String "p"); ("rid", Codec.Int rid); ("err", Codec.String m) ])
  | _ -> None (* not RPC traffic: other payload kinds have no wire form *)

let payload_of_value v =
  match Codec.to_string (Codec.member "k" v) with
  | "q" ->
      Request
        {
          rid = Codec.to_int (Codec.member "rid" v);
          proc = Codec.to_string (Codec.member "proc" v);
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
      Reply { rid = Codec.to_int (Codec.member "rid" v); result }
  | k -> raise (Codec.Parse_error (Printf.sprintf "unknown rpc payload kind %S" k))

let calls_issued env = env.Env.rpc_next_rid
