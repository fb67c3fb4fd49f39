module Engine = Splay_sim.Engine
module Sandbox = Splay_runtime.Sandbox
module Log = Splay_runtime.Log
module Env = Splay_runtime.Env
module Rpc = Splay_runtime.Rpc
module Codec = Splay_runtime.Codec
module Obs = Splay_obs.Obs

(* Per-command counters on the daemon side of the job state machine; the
   REGISTER span captures the service pause that makes loaded hosts slow
   to accept instances (the reason deployments over-provision). *)
let c_register = Obs.counter "splayd.register"
let c_list = Obs.counter "splayd.list"
let c_start = Obs.counter "splayd.start"
let c_stop = Obs.counter "splayd.stop"
let c_free = Obs.counter "splayd.free"

type config = {
  base_footprint : int;
  admin_limits : Sandbox.limits;
  heartbeat_interval : float;
  cpu_per_instance : float;
  contention_extra : int -> float;
}

let splay_config =
  {
    (* ~600 kB of libraries at load, growing towards ~1.5 MB once protocol
       state fills in; we account the resident steady state *)
    base_footprint = 1_450 * 1024;
    admin_limits = { Sandbox.unlimited with Sandbox.max_memory = 16 * 1024 * 1024 };
    heartbeat_interval = 60.0;
    cpu_per_instance = 0.000_3;
    contention_extra = (fun _ -> 0.0);
  }

type job_spec = {
  js_name : string;
  js_main : Env.t -> unit;
  js_limits : Sandbox.limits;
  js_log_sink : Log.sink;
  js_log_level : Log.level;
  js_loss : float;
}

type t = {
  d_host : Addr.host_id;
  net : Net.t;
  d_env : Env.t; (* the daemon's own control endpoint *)
  cfg : config;
  controller : Addr.t;
  lookup_job : int -> job_spec option;
  tbl : Instances.t;
  mutable banned : Addr.host_id list; (* controller-pushed blacklist *)
}

let proc_probe = Rpc.proc "splayd.probe" (Rpc.arg Codec.string) Codec.unit
let proc_register = Rpc.proc "splayd.register" (Rpc.arg Codec.int) Codec.int
let proc_list = Rpc.proc "splayd.list" (Rpc.args3 Codec.int Codec.int Wire.addrs) Codec.unit
let proc_start = Rpc.proc "splayd.start" (Rpc.args2 Codec.int Codec.int) Codec.unit
let proc_free = Rpc.proc "splayd.free" (Rpc.arg Codec.int) Codec.unit
let proc_stop = Rpc.proc "splayd.stop" (Rpc.arg Codec.int) Codec.unit
let proc_blacklist = Rpc.proc "splayd.blacklist" (Rpc.arg Codec.int) Codec.unit

(* The controller serves the heartbeat; it is declared here, beside the
   daemon that sends it, because the controller is built on this module. *)
let proc_heartbeat = Rpc.proc "ctl.heartbeat" (Rpc.arg Codec.int) Codec.unit

(* A live controller cannot hand a daemon the job's closure: it names
   the application, which the daemon looks up. *)
type job_desc = {
  jd_app : string;
  jd_params : (string * string) list;
  jd_limits : Sandbox.limits;
  jd_log_level : Log.level;
}

(* On the wire: [[app, {params}, [limits], level]]. *)
let job_desc =
  let to_value d =
    let l = d.jd_limits in
    Codec.List
      [
        Codec.String d.jd_app;
        Codec.Assoc (List.map (fun (k, v) -> (k, Codec.String v)) d.jd_params);
        Codec.List
          (List.map
             (fun n -> Codec.Int n)
             [ l.max_memory; l.max_sockets; l.max_fs_bytes; l.max_open_files; l.max_send_bytes ]);
        Codec.String (Log.level_to_string d.jd_log_level);
      ]
  in
  let of_value v =
    let level s = Log.level_of_string (Codec.to_string s) in
    match Codec.to_list v with
    | [ app; Codec.Assoc kvs; limits; lv ] -> (
        match (List.map Codec.to_int (Codec.to_list limits), level lv) with
        | [ max_memory; max_sockets; max_fs_bytes; max_open_files; max_send_bytes ], Some jd_log_level
          ->
            let jd_limits =
              { Sandbox.max_memory; max_sockets; max_fs_bytes; max_open_files; max_send_bytes }
            in
            let jd_params = List.map (fun (k, pv) -> (k, Codec.to_string pv)) kvs in
            { jd_app = Codec.to_string app; jd_params; jd_limits; jd_log_level }
        | _ -> raise (Codec.Parse_error "bad job description"))
    | _ -> raise (Codec.Parse_error "bad job description")
  in
  { Codec.size = (fun d -> Codec.encoded_size (to_value d)); to_value; of_value }

let proc_job = Rpc.proc "splayd.job" (Rpc.args2 Codec.int job_desc) Codec.unit

let addr t = t.d_env.Env.me
let env t = t.d_env
let host t = t.d_host

let instances t = Instances.all t.tbl
let instance_count t = Instances.count t.tbl

let memory_used t =
  (instance_count t * t.cfg.base_footprint) + (Instances.usage t.tbl).Instances.mem

(* Contention model: instances cost a sliver of CPU each; once resident
   memory exceeds the host's RAM, swapping multiplies every service time.
   This is what bends the FreePastry curves in Fig. 7(b)/Fig. 8 while SPLAY,
   with its small footprint, stays flat. A synthetic testbed keeps no
   host records and no model: its multiplier stays 1.0, as
   [Testbed.service_mult] answers. *)
let refresh_host_model t =
  let tb = Net.testbed t.net in
  if Testbed.has_records tb then begin
    let mem = Float.of_int (memory_used t) in
    let cap = (Testbed.host tb t.d_host).Testbed.mem_mb *. 1024.0 *. 1024.0 in
    let swap_mult = if mem > cap then 1.0 +. (60.0 *. ((mem /. cap) -. 1.0)) else 1.0 in
    let n = instance_count t in
    let cpu_mult =
      1.0 +. (t.cfg.cpu_per_instance *. Float.of_int n) +. t.cfg.contention_extra n
    in
    Testbed.set_service_mult tb t.d_host (swap_mult *. cpu_mult)
  end

let load t =
  let n = Float.of_int (instance_count t) in
  let base = n *. t.cfg.cpu_per_instance in
  if Testbed.service_mult (Net.testbed t.net) t.d_host > 1.5 then base +. (n *. 0.002) else base

let remove_instance t inst =
  Instances.remove t.tbl inst;
  refresh_host_model t

let stop_instance t a =
  match Instances.find t.tbl a.Addr.port with
  | Some i when Addr.equal i.Instances.env.Env.me a -> remove_instance t i
  | _ -> ()

(* A control command pays the host's service time before answering: on a
   loaded PlanetLab node, forking and preparing an instance is slow — the
   very reason the controller over-provisions candidates. *)
let service_pause t = Engine.sleep (Testbed.service_delay (Net.testbed t.net) t.d_host)

(* A fresh sandboxed environment for an instance slot (initial REGISTER,
   or re-arming after STOP). *)
let fresh_env t spec ~port =
  let limits = Sandbox.restrict t.cfg.admin_limits spec.js_limits in
  let env = Env.create t.net ~me:(Addr.make t.d_host port) ~limits ~nodes:[] in
  Sandbox.blacklist env.Env.sandbox t.controller.Addr.host;
  List.iter (Sandbox.blacklist env.Env.sandbox) t.banned;
  Log.set_sink (Env.log env) spec.js_log_sink;
  (* the job's log threshold filters at the emitting node, before any
     forwarding cost is paid — the paper's log.set_level at init *)
  Log.set_level (Env.log env) spec.js_log_level;
  env.Env.loss_rate <- spec.js_loss;
  env

let handle_register t job =
  Obs.incr c_register;
  let sp =
    if !Obs.enabled then Obs.span ~attrs:[ ("host", string_of_int t.d_host) ] "splayd.register"
    else Obs.null_span
  in
  service_pause t;
  match t.lookup_job job with
  | None ->
      Obs.finish ~attrs:[ ("outcome", "unknown_job") ] sp;
      failwith "unknown job"
  | Some spec ->
      let port =
        Instances.register t.tbl ~job ~name:spec.js_name ~main:spec.js_main (fun port ->
            fresh_env t spec ~port)
      in
      refresh_host_model t;
      if !Obs.enabled then Obs.finish ~attrs:[ ("port", string_of_int port) ] sp;
      port

let ok_or_fail verb = function Ok () -> () | Error e -> failwith (verb ^ ": " ^ e)

let handle_list t (port, position, nodes) =
  Obs.incr c_list;
  ok_or_fail "list" (Instances.list t.tbl ~port ~position ~nodes)

let handle_start t (job, port) =
  Obs.incr c_start;
  ok_or_fail "start" (Instances.start t.tbl ~job ~port)

(* STOP: terminate the application but keep the registration — the job goes
   back to the "selected" state of the paper's state machine and can be
   STARTed again. *)
let handle_stop t port =
  Obs.incr c_stop;
  match Instances.find t.tbl port with
  | None -> failwith "stop: no such instance"
  | Some inst -> (
      match t.lookup_job inst.Instances.job with
      | None -> failwith "stop: unknown job"
      | Some spec ->
          Env.stop inst.env;
          let env = fresh_env t spec ~port in
          env.Env.position <- inst.env.Env.position;
          inst.env <- env;
          inst.started <- false;
          refresh_host_model t)

let handle_free t port =
  Obs.incr c_free;
  if Instances.free t.tbl ~port then refresh_host_model t

let handle_blacklist t h =
  if not (List.mem h t.banned) then t.banned <- h :: t.banned;
  List.iter (fun i -> Sandbox.blacklist i.Instances.env.Env.sandbox h) (instances t)

let start net ~host ~controller ?(config = splay_config) ~lookup_job () =
  let d_env = Env.create net ~me:(Addr.make host 1) in
  let t =
    {
      d_host = host;
      net;
      d_env;
      cfg = config;
      controller;
      lookup_job;
      tbl = Instances.create ~host;
      banned = [];
    }
  in
  Rpc.handle d_env proc_probe (fun _padding -> service_pause t);
  Rpc.handle d_env proc_register (handle_register t);
  Rpc.handle d_env proc_list (handle_list t);
  Rpc.handle d_env proc_start (handle_start t);
  Rpc.handle d_env proc_free (handle_free t);
  Rpc.handle d_env proc_stop (handle_stop t);
  Rpc.handle d_env proc_blacklist (handle_blacklist t);
  (* session keep-alive towards the controller *)
  ignore
    (Env.periodic d_env t.cfg.heartbeat_interval (fun () ->
         ignore (Rpc.invoke d_env t.controller ~timeout:30.0 proc_heartbeat t.d_host)));
  t

let shutdown t =
  Instances.shutdown t.tbl;
  refresh_host_model t;
  Env.stop t.d_env
