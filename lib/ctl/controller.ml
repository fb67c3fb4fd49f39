module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Env = Splay_runtime.Env
module Rpc = Splay_runtime.Rpc
module Log = Splay_runtime.Log
module Obs = Splay_obs.Obs

(* Observability sites of the daemon database; the REGISTER / LIST / START
   / FREE conversation itself lives in [Deploy]. *)
let c_heartbeats = Obs.counter "ctl.heartbeats"
let c_blacklist = Obs.counter "ctl.blacklist_pushes"
let h_heartbeat_age = Obs.histogram "ctl.heartbeat_age"

type drec = { dr_daemon : Daemon.t; mutable dr_last_seen : float }

type job = {
  j_id : int;
  j_desc : Descriptor.t;
  mutable j_members : (Daemon.t * Addr.t * int) list; (* newest first *)
  mutable j_next_position : int;
  j_log : Deploy.logs;
}

type t = {
  c_net : Net.t;
  c_env : Env.t;
  mutable c_daemons : drec list;
  c_specs : (int, Daemon.job_spec) Hashtbl.t;
  mutable c_next_job : int;
  c_unseen : float;
  c_rng : Rng.t;
}

type deployment = { dep_ctl : t; dep_job : job }

let addr t = t.c_env.Env.me
let env t = t.c_env
let net t = t.c_net

let create ?(unseen_timeout = 3600.0) net ~host =
  let c_env = Env.create net ~me:(Addr.make host 1) in
  let t =
    {
      c_net = net;
      c_env;
      c_daemons = [];
      c_specs = Hashtbl.create 16;
      c_next_job = 0;
      c_unseen = unseen_timeout;
      c_rng = Rng.split (Engine.rng (Net.engine net));
    }
  in
  Rpc.handle c_env Daemon.proc_heartbeat (fun h ->
      match List.find_opt (fun d -> Daemon.host d.dr_daemon = h) t.c_daemons with
      | Some d ->
          let now = Engine.now (Net.engine net) in
          Obs.incr c_heartbeats;
          if !Obs.enabled || !Obs.metrics_enabled then
            Obs.observe h_heartbeat_age (now -. d.dr_last_seen);
          d.dr_last_seen <- now
      | None -> ());
  t

let now t = Engine.now (Net.engine t.c_net)

let boot_daemons ?config t hosts =
  List.map
    (fun h ->
      let d =
        Daemon.start t.c_net ~host:h ~controller:(addr t) ?config
          ~lookup_job:(fun id -> Hashtbl.find_opt t.c_specs id)
          ()
      in
      t.c_daemons <- { dr_daemon = d; dr_last_seen = now t } :: t.c_daemons;
      d)
    hosts

let daemon_alive t d =
  Net.host_up t.c_net (Daemon.host d.dr_daemon) && now t -. d.dr_last_seen < t.c_unseen

let alive_daemons t =
  List.rev_map (fun d -> d.dr_daemon) (List.filter (daemon_alive t) t.c_daemons)

(* {1 Selection} *)

let select_report t ?criteria n =
  let tb = Net.testbed t.c_net in
  let chosen, report =
    Deploy.select t.c_rng ?criteria ~alive:(daemon_alive t)
      ~host:(fun dr -> Testbed.host tb (Daemon.host dr.dr_daemon))
      (List.rev t.c_daemons) n
  in
  (List.map (fun dr -> dr.dr_daemon) chosen, report)

(* {1 Probing} *)

let probe t ?(payload = 20 * 1024) d =
  let t0 = now t in
  let padding = String.make payload 'x' in
  match Rpc.invoke t.c_env (Daemon.addr d) ~timeout:10.0 Daemon.proc_probe padding with
  | Ok _ -> Some (now t -. t0)
  | Error _ -> None

(* {1 Deployment} *)

let new_job t ~log_cap ~log_level name main desc =
  let id = t.c_next_job in
  t.c_next_job <- id + 1;
  let job =
    {
      j_id = id;
      j_desc = desc;
      j_members = [];
      j_next_position = 1;
      j_log = Deploy.logs ~cap:log_cap;
    }
  in
  Hashtbl.replace t.c_specs id
    {
      Daemon.js_name = name;
      js_main = main;
      js_limits = desc.Descriptor.limits;
      (* every instance of the job forwards its records to the collector *)
      js_log_sink = Deploy.log_sink job.j_log;
      js_log_level = log_level;
      js_loss = desc.Descriptor.loss;
    };
  job

(* Issuing a command costs the controller a little CPU and connection
   setup; commands fan out in parallel but their dispatch serializes. This
   is what makes deploying 400 instances take longer than deploying 50 at
   the same superset ratio (Fig. 12). *)
let dispatch_interval = 0.002

let spawn t f = ignore (Env.thread t.c_env f)

let transport ?register_timeout t job =
  Deploy.transport ?register_timeout
    ~pace:(fun () -> Engine.sleep dispatch_interval)
    t.c_env ~addr:Daemon.addr ~job:job.j_id

let deploy t ?superset ?register_timeout ?(criteria = []) ?(log_cap = 100_000)
    ?(log_level = Log.Info) ~name ~main desc =
  let job = new_job t ~log_cap ~log_level name main desc in
  let members, _ =
    Deploy.deploy
      (transport ?register_timeout t job)
      t.c_rng ~select:(select_report t ~criteria) ?superset ~job:job.j_id ~name desc
  in
  job.j_next_position <- List.length members + 1;
  job.j_members <- List.rev members;
  { dep_ctl = t; dep_job = job }

let deployment_ctl dep = dep.dep_ctl

let members dep = List.rev dep.dep_job.j_members

(* The member's instance while it runs: started, not stopped, host up. *)
let running dep (d, a, _) =
  if not (Net.host_up dep.dep_ctl.c_net (Daemon.host d)) then None
  else
    match List.find_opt (fun i -> Addr.equal i.Instances.env.Env.me a) (Daemon.instances d) with
    | Some i as found when i.started && not (Env.is_stopped i.env) -> found
    | _ -> None

let live_members dep = List.filter (fun m -> Option.is_some (running dep m)) (members dep)

let live_envs dep =
  List.filter_map (fun m -> Option.map (fun i -> i.Instances.env) (running dep m)) (members dep)

let live_count dep = List.length (live_members dep)

(* {1 Status — the splayctl view of a running job}

   The paper's splayctl continuously shows, per job, which splayds are up,
   how loaded they are and who is closest to its sandbox caps. The status
   record is that row: computed on demand from the controller's own
   membership and the daemons' instance tables (no extra RPC round — the
   controller co-simulates with the daemons), and cheap enough to sample
   every rollup window. *)

type job_status = {
  st_name : string;
  st_members : int; (* ever deployed *)
  st_live : int; (* started, not stopped, host up *)
  st_hosts_up : int; (* distinct member hosts currently up *)
  st_hosts_down : int;
  st_fibers : int; (* live processes across live instances *)
  st_inflight : int; (* outstanding RPC calls across live instances *)
  st_mem_bytes : int; (* sandbox-accounted memory across live instances *)
  st_worst : (Addr.t * int) list; (* hottest instances by memory, descending *)
}

let job_name dep =
  match Hashtbl.find_opt dep.dep_ctl.c_specs dep.dep_job.j_id with
  | Some spec -> spec.Daemon.js_name
  | None -> string_of_int dep.dep_job.j_id

let job_status ?(top = 3) dep =
  let t = dep.dep_ctl in
  let ms = members dep in
  let hosts = List.sort_uniq compare (List.map (fun (d, _, _) -> Daemon.host d) ms) in
  let up, down = List.partition (Net.host_up t.c_net) hosts in
  let u = Instances.zero () and per = ref [] in
  List.iter
    (fun ((_, a, _) as m) ->
      match running dep m with
      | Some i ->
          let before = u.mem in
          Instances.add u i.env;
          per := (a, u.mem - before) :: !per
      | None -> ())
    ms;
  let worst =
    List.sort
      (fun (a1, m1) (a2, m2) -> if m1 <> m2 then compare m2 m1 else compare a1 a2)
      (List.rev !per)
  in
  {
    st_name = job_name dep;
    st_members = List.length ms;
    st_live = List.length !per;
    st_hosts_up = List.length up;
    st_hosts_down = List.length down;
    st_fibers = u.fibers;
    st_inflight = u.inflight;
    st_mem_bytes = u.mem;
    st_worst = Misc.take top worst;
  }

let worst_cell st =
  String.concat " "
    (List.map (fun (a, m) -> Printf.sprintf "%s:%d" (Addr.to_string a) m) st.st_worst)

(* Periodic status sampling into the metrics plane: per-job [ctl.job_status]
   note rows (the splayd status report of the paper, one row per window)
   plus the per-host telemetry histograms over the job's live instances.
   Runs on the controller's env, so it dies with the controller at
   shutdown; between samples it costs nothing. *)
let monitor ?interval ?(top = 3) dep =
  let interval = match interval with Some i -> i | None -> Obs.Rollup.window () in
  let name = job_name dep in
  let g_live = Obs.gauge (Printf.sprintf "ctl.job.%s.live" name) in
  let g_hosts_down = Obs.gauge (Printf.sprintf "ctl.job.%s.hosts_down" name) in
  ignore
    (Env.periodic dep.dep_ctl.c_env interval (fun () ->
         let st = job_status ~top dep in
         Obs.gauge_set g_live (Float.of_int st.st_live);
         Obs.gauge_set g_hosts_down (Float.of_int st.st_hosts_down);
         Telemetry.sample_envs (Array.of_list (live_envs dep));
         Telemetry.sample_engine (Net.engine dep.dep_ctl.c_net);
         if !Obs.metrics_enabled then
           Obs.Rollup.note "ctl.job_status"
             ~attrs:
               [
                 ("job", name);
                 ("members", string_of_int st.st_members);
                 ("live", string_of_int st.st_live);
                 ("hosts_up", string_of_int st.st_hosts_up);
                 ("hosts_down", string_of_int st.st_hosts_down);
                 ("fibers", string_of_int st.st_fibers);
                 ("inflight", string_of_int st.st_inflight);
                 ("mem_bytes", string_of_int st.st_mem_bytes);
                 ("worst", worst_cell st);
               ]))

let add_node dep =
  let t = dep.dep_ctl and job = dep.dep_job in
  let tr = transport t job in
  match fst (select_report t 1) with
  | [] -> None
  | d :: _ -> (
      match Deploy.register_round tr [ d ] ~need:1 with
      | [] -> None
      | (d, a) :: _ ->
          let position = job.j_next_position in
          job.j_next_position <- position + 1;
          let live = List.map (fun (_, a, _) -> a) (live_members dep) in
          let nodes = Deploy.bootstrap t.c_rng job.j_desc live in
          if tr.Deploy.start d a ~position ~nodes then begin
            job.j_members <- (d, a, position) :: job.j_members;
            Some a
          end
          else None)

let crash_node dep a =
  List.iter
    (fun (d, ma, _) -> if Addr.equal ma a then Daemon.stop_instance d a)
    dep.dep_job.j_members

let stop_node dep a =
  List.iter
    (fun (d, ma, _) ->
      if Addr.equal ma a then
        ignore
          (Rpc.invoke dep.dep_ctl.c_env (Daemon.addr d) ~timeout:30.0 Daemon.proc_stop a.Addr.port))
    dep.dep_job.j_members

let restart_node dep a =
  let t = dep.dep_ctl and job = dep.dep_job in
  let tr = transport t job in
  List.iter
    (fun (d, ma, position) ->
      if Addr.equal ma a then begin
        let live = List.map (fun (_, x, _) -> x) (live_members dep) in
        let nodes = Deploy.bootstrap t.c_rng job.j_desc live in
        ignore (tr.Deploy.start d a ~position ~nodes)
      end)
    dep.dep_job.j_members

let free_node dep a =
  let tr = transport dep.dep_ctl dep.dep_job in
  List.iter (fun (d, ma, _) -> if Addr.equal ma a then tr.Deploy.free d a) dep.dep_job.j_members

let undeploy dep =
  Deploy.fan_out ~spawn:(spawn dep.dep_ctl)
    (List.map (fun (_, a, _) -> fun () -> free_node dep a) (live_members dep))

let job_logs dep = dep.dep_job.j_log

let push_blacklist t h =
  Obs.incr c_blacklist;
  if !Obs.enabled then Obs.event ~attrs:[ ("host", string_of_int h) ] "ctl.blacklist_push";
  Deploy.fan_out ~spawn:(spawn t)
    (List.map
       (fun d ->
         fun () ->
          ignore
            (Rpc.invoke t.c_env (Daemon.addr d.dr_daemon) ~timeout:30.0 Daemon.proc_blacklist h))
       t.c_daemons)
