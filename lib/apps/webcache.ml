module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Crypto = Splay_runtime.Crypto
module Sandbox = Splay_runtime.Sandbox
module Rng = Splay_sim.Rng
module Ivar = Splay_sim.Ivar

type config = {
  max_entries : int;
  ttl : float;
  origin_delay_mean : float;
  object_size : int;
  rpc_timeout : float;
  serve_cost : float;
  coalesce : bool;
  admission : bool;
  token_rate : float;
  token_burst : float;
}

let default_config =
  {
    max_entries = 100;
    ttl = 120.0;
    origin_delay_mean = 1.5;
    object_size = 2048;
    rpc_timeout = 30.0;
    serve_cost = 0.0;
    coalesce = false;
    admission = false;
    token_rate = 2000.0;
    token_burst = 64.0;
  }

type entry = { value : string; fetched_at : float; mutable last_used : float }

type t = {
  cfg : config;
  p : Pastry.node;
  env : Env.t;
  cache : (string, entry) Hashtbl.t;
  mutable served : int;
  mutable misses : int;
  mutable origin : int;
  mutable stale : int;
  mutable shed : int;
  (* in-flight origin fetches, for [coalesce]: later missers of the same
     url wait on the first fetch instead of hammering the origin *)
  inflight : (string, string Ivar.t) Hashtbl.t;
  mutable tokens : float;
  mutable refilled_at : float;
  w_rng : Rng.t;
}

let requests_served t = t.served
let home_misses t = t.misses
let cached_entries t = Hashtbl.length t.cache
let origin_fetches t = t.origin
let stale_served t = t.stale
let shed_count t = t.shed

let now t = Env.now t.env

(* Simulated origin server: heavy-ish fetch latency, as the paper's
   non-cached accesses (1-2 s on average). *)
let fetch_origin t url =
  Env.sleep (Rng.exponential t.w_rng ~mean:t.cfg.origin_delay_mean);
  let body = Printf.sprintf "content-of:%s:" url in
  body ^ String.make (max 0 (t.cfg.object_size - String.length body)) 'x'

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun url e ->
      match !victim with
      | Some (_, ve) when ve.last_used <= e.last_used -> ()
      | _ -> victim := Some (url, e))
    t.cache;
  match !victim with
  | Some (url, e) ->
      Hashtbl.remove t.cache url;
      Sandbox.free t.env.Env.sandbox (String.length e.value)
  | None -> ()

let insert t url value =
  while Hashtbl.length t.cache >= t.cfg.max_entries do
    evict_lru t
  done;
  Sandbox.alloc t.env.Env.sandbox (String.length value);
  Hashtbl.replace t.cache url { value; fetched_at = now t; last_used = now t }

(* Token-bucket admission at the home node: overload answers with a fast
   reject the client sees as [`Shed], not with an origin-fetch pile-up. *)
let admit t =
  if not t.cfg.admission then true
  else begin
    let n = now t in
    t.tokens <-
      Float.min t.cfg.token_burst (t.tokens +. ((n -. t.refilled_at) *. t.cfg.token_rate));
    t.refilled_at <- n;
    if t.tokens >= 1.0 then begin
      t.tokens <- t.tokens -. 1.0;
      true
    end
    else begin
      t.shed <- t.shed + 1;
      false
    end
  end

(* Serve a request as the home node. *)
let serve t url =
  t.served <- t.served + 1;
  if t.cfg.serve_cost > 0.0 then begin
    let m =
      Testbed.service_mult (Net.testbed t.env.Env.net) (Pastry.self_node t.p).Node.addr.Addr.host
    in
    Env.sleep (t.cfg.serve_cost *. m)
  end;
  match Hashtbl.find_opt t.cache url with
  | Some e when now t -. e.fetched_at <= t.cfg.ttl ->
      e.last_used <- now t;
      (* the freshness guard above is the invariant; the counter exists so
         the check suite can observe it never fired *)
      if now t -. e.fetched_at > t.cfg.ttl then t.stale <- t.stale + 1;
      (e.value, true)
  | stale ->
      (match stale with
      | Some e ->
          Hashtbl.remove t.cache url;
          Sandbox.free t.env.Env.sandbox (String.length e.value)
      | None -> ());
      t.misses <- t.misses + 1;
      let value =
        match (if t.cfg.coalesce then Hashtbl.find_opt t.inflight url else None) with
        | Some iv ->
            (* another fiber already went to the origin for this url: ride
               its reply (it inserts into the cache as well) *)
            Ivar.read iv
        | None ->
            let iv = if t.cfg.coalesce then Some (Ivar.create ()) else None in
            (match iv with
            | Some iv -> Hashtbl.replace t.inflight url iv
            | None -> ());
            t.origin <- t.origin + 1;
            let v = fetch_origin t url in
            (match iv with
            | Some iv ->
                Hashtbl.remove t.inflight url;
                Ivar.fill iv v
            | None -> ());
            insert t url v;
            v
      in
      (value, false)

(* A get's answer: the value and whether the home's cache held it, as
   [{"v": value, "hit": hit}], or [false] when the home shed the request. *)
let reply =
  let found = Codec.record2 "v" Codec.string "hit" Codec.bool in
  {
    Codec.size = (function None -> 5 | Some r -> found.size r);
    to_value = (function None -> Codec.Bool false | Some r -> found.to_value r);
    of_value = (function Codec.Bool false -> None | v -> Some (found.of_value v));
  }

let p_get = Rpc.proc "wc.get" (Rpc.arg Codec.string) reply

let handle_get t url = if admit t then Some (serve t url) else None

let get t url =
  let t0 = now t in
  let key = Crypto.hash_to_id url ~bits:(Pastry.config_of t.p).Pastry.bits in
  match Pastry.lookup t.p key with
  | None -> ("", `Failed, now t -. t0)
  | Some (home, _) ->
      if Node.equal home (Pastry.self_node t.p) then begin
        if not (admit t) then ("", `Shed, now t -. t0)
        else begin
          let value, hit = serve t url in
          (value, (if hit then `Hit else `Miss), now t -. t0)
        end
      end
      else begin
        match Rpc.invoke t.env home.Node.addr ~timeout:t.cfg.rpc_timeout p_get url with
        | Ok None ->
            (* admission fast-reject: the home node is healthy, just
               overloaded — do not feed the failure detector *)
            ("", `Shed, now t -. t0)
        | Ok (Some (value, hit)) -> (value, (if hit then `Hit else `Miss), now t -. t0)
        | Error _ ->
            Pastry.report_failure t.p home;
            ("", `Failed, now t -. t0)
      end

let create ?(config = default_config) p =
  let env = Pastry.node_env p in
  let t =
    {
      cfg = config;
      p;
      env;
      cache = Hashtbl.create 64;
      served = 0;
      misses = 0;
      origin = 0;
      stale = 0;
      shed = 0;
      inflight = Hashtbl.create 8;
      tokens = config.token_burst;
      refilled_at = 0.0;
      w_rng = Rng.split env.Env.env_rng;
    }
  in
  Rpc.handle env p_get (handle_get t);
  t
