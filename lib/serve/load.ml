module Env = Splay_runtime.Env
module Rng = Splay_sim.Rng
module Sink = Splay_stats.Sink
module Obs = Splay_obs.Obs
module Trace = Splay_churn.Trace

type op = Get of string | Put of string * string
type outcome = [ `Ok | `Miss | `Shed | `Failed ]

type config = {
  clients : int;
  rate : float;
  duration : float;
  get_frac : float;
  keys : int;
  zipf_s : float;
  value_size : int;
  inflight : int;
  diurnal_amplitude : float;
  diurnal_period : float;
}

let default =
  {
    clients = 10_000;
    rate = 500.0;
    duration = 60.0;
    get_frac = 0.9;
    keys = 1_000;
    zipf_s = 1.0;
    value_size = 64;
    inflight = 64;
    diurnal_amplitude = 0.15;
    diurnal_period = 60.0;
  }

type stats = {
  mutable offered : int;
  mutable ok : int;
  mutable misses : int;
  mutable shed : int;
  mutable failed : int;
  lat : Sink.t;
  first_client : int;
  local_clients : int;
  mutable setup_words : int;
}

(* This partition's share of the client population: clients are split
   contiguously so every id is owned by exactly one partition and the
   split is a pure function of (clients, parts). *)
let client_span ~clients ~part ~parts =
  let lo = clients * part / parts and hi = clients * (part + 1) / parts in
  (lo, hi - lo)

type pending = { intended : float; op : op }

let h_latency = Obs.histogram "serve.latency"
let h_queue_wait = Obs.histogram "serve.queue_wait"

let run config ~seed ~part ~parts ~gateways ~issue =
  if Array.length gateways = 0 then invalid_arg "Load.run: no gateways";
  if parts < 1 || part < 0 || part >= parts then invalid_arg "Load.run: bad partition";
  let n_gw = Array.length gateways in
  let lo, local_clients = client_span ~clients:config.clients ~part ~parts in
  let local_rate =
    config.rate *. Float.of_int local_clients /. Float.of_int (max 1 config.clients)
  in
  let stats =
    {
      offered = 0;
      ok = 0;
      misses = 0;
      shed = 0;
      failed = 0;
      lat = Sink.sketch ();
      (* no per-client state at all: no fiber, no buffer, no timer per
         idle client — a client is an index into [lo, lo + local_clients) *)
      first_client = lo;
      local_clients;
      setup_words = 0;
    }
  in
  let zipf = Rng.Zipf.create ~n:config.keys ~s:config.zipf_s in
  (* private arrival stream per (seed, part): domains runs stay a pure
     function of the partition layout, never of worker scheduling *)
  let arr_rng = Rng.create (0x0A11D lxor (seed * 0x9E3779B9) lxor (part * 0x85EB)) in
  let value = String.make config.value_size 'v' in
  (* counted by reachability, not by live-words deltas: a forced major
     collection here would stall the automatic major GC for the whole run *)
  stats.setup_words <- Obj.reachable_words (Obj.repr (stats, zipf, arr_rng, value));
  let queues = Array.init n_gw (fun _ -> Queue.create ()) in
  let active = Array.make n_gw 0 in
  let record p res t_done =
    (match res with
    | `Ok -> stats.ok <- stats.ok + 1
    | `Miss -> stats.misses <- stats.misses + 1
    | `Shed -> stats.shed <- stats.shed + 1
    | `Failed -> stats.failed <- stats.failed + 1);
    (* coordinated-omission-free: latency runs from the INTENDED arrival
       time the open-loop schedule assigned, so time spent waiting behind
       a saturated gateway counts against the service, exactly as a real
       client would experience it *)
    Sink.add stats.lat (t_done -. p.intended);
    if !Obs.metrics_enabled then Obs.observe h_latency (t_done -. p.intended)
  in
  let rec worker g =
    match Queue.take_opt queues.(g) with
    | None -> active.(g) <- active.(g) - 1
    | Some p ->
        if !Obs.metrics_enabled then
          Obs.observe h_queue_wait (Env.now gateways.(g) -. p.intended);
        let res = issue g p.op in
        record p res (Env.now gateways.(g));
        worker g
  in
  (* bounded in-flight pool: at most [inflight] worker fibers per gateway,
     spawned lazily on demand and exiting when the gateway queue drains *)
  let enqueue g p =
    Queue.push p queues.(g);
    if active.(g) < config.inflight then begin
      active.(g) <- active.(g) + 1;
      ignore (Env.thread gateways.(g) ~name:"serve-worker" (fun () -> worker g))
    end
  in
  let disp_env = gateways.(0) in
  (* Open-loop arrivals: a non-homogeneous Poisson process of intensity
     rate * diurnal(t), generated by thinning a homogeneous process at the
     peak intensity. The dispatcher never waits for completions — offered
     load is what the schedule says, not what the servers can absorb. *)
  if local_rate > 0.0 && config.duration > 0.0 then
    ignore
      (Env.thread disp_env ~name:"serve-dispatch" (fun () ->
           let t_end = Env.now disp_env +. config.duration in
           let peak = local_rate *. (1.0 +. config.diurnal_amplitude) in
           let rec loop () =
             Env.sleep (Rng.exponential arr_rng ~mean:(1.0 /. peak));
             let t = Env.now disp_env in
             if t < t_end then begin
               let lambda =
                 local_rate
                 *. Trace.diurnal ~amplitude:config.diurnal_amplitude
                      ~period:config.diurnal_period t
               in
               if Rng.chance arr_rng (lambda /. peak) then begin
                 (* the client issuing the request picks its gateway *)
                 let c = Rng.int arr_rng (max 1 local_clients) in
                 stats.offered <- stats.offered + 1;
                 let key = "k" ^ Int.to_string (Rng.Zipf.draw zipf arr_rng) in
                 let op =
                   if Rng.chance arr_rng config.get_frac then Get key
                   else Put (key, value)
                 in
                 enqueue ((lo + c) mod n_gw) { intended = t; op }
               end;
               loop ()
             end
           in
           loop ()));
  stats
