module Wire = Splay_ctl.Wire
module Descriptor = Splay_ctl.Descriptor
module Deploy = Splay_ctl.Deploy
module Daemon = Splay_ctl.Daemon
module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng

(* The live controller (the paper's splayctl): forks real splayd
   processes, runs the Hello/Peers bootstrap, then runs the simulated
   controller's deploy conversation ([Deploy]: superset REGISTER, first
   acks win, stragglers FREEd, refill rounds, LIST+START) in a process on
   its loop's engine, over the same RPC transport: the daemons serve the
   simulated daemon's procedures, and the calls and replies travel as
   App frames on the control connections. It serves the daemons'
   heartbeats and collects streamed log records and shutdown-time
   trace/metrics chunks until the run completes.

   Hygiene: children are reaped on every exit path — SIGINT/SIGTERM
   handlers and an [at_exit] hook SIGKILL any daemon still alive, and the
   daemons' own orphan watch covers the uncatchable SIGKILL case. *)

type cfg = {
  c_app : string;
  c_params : (string * string) list;
  c_daemons : int;
  c_desc : Descriptor.t;
  c_out_dir : string;
  c_splayd : string;
  c_trace : bool;
  c_metrics : bool;
  c_duration : float;  (* > 0: run this long; 0: until the app reports done *)
  c_deadline : float;  (* hard wall-clock budget for the entire run *)
  c_log_level : Log.level;
  c_seed : int;
}

let default_cfg =
  {
    c_app = "chord";
    c_params = [];
    c_daemons = 3;
    c_desc = { Descriptor.default with Descriptor.bootstrap = Descriptor.All; nb_splayd = 3 };
    c_out_dir = "_live";
    c_splayd = "splayd";
    c_trace = true;
    c_metrics = false;
    c_duration = 0.0;
    c_deadline = 120.0;
    c_log_level = Log.Info;
    c_seed = 42;
  }

type daemon = {
  d_host : int;
  d_pid : int;
  d_log : string;
  mutable d_conn : Conn.t option;
  mutable d_data_port : int;
  mutable d_heartbeats : int;
  mutable d_last_seen : float;  (* loop time of the last heartbeat *)
  mutable d_bye : bool;
  mutable d_status : Unix.process_status option;
}

type outcome = {
  r_ok : bool;
  r_failures : string list;
  r_reports : (string * string) list;  (* (node, REPORT line), arrival order *)
  r_select : Deploy.selection_report;
  r_calls : (string * int) list;  (* RPCs sent to the daemons, per procedure *)
  r_heartbeats : (int * int) list;  (* heartbeats served, per daemon host *)
  r_log_records : int;
  r_trace_file : string option;
  r_metrics_file : string option;
  r_out_dir : string;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let state_file dir = Filename.concat dir "daemons.json"

let write_state dir daemons =
  let v =
    Codec.Assoc
      [
        ("controller_pid", Codec.Int (Unix.getpid ()));
        ( "daemons",
          Codec.List
            (List.map
               (fun d ->
                 Codec.Assoc
                   [
                     ("host", Codec.Int d.d_host);
                     ("pid", Codec.Int d.d_pid);
                     ("log", Codec.String d.d_log);
                   ])
               daemons) );
      ]
  in
  let oc = open_out (state_file dir) in
  output_string oc (Codec.encode v);
  output_char oc '\n';
  close_out oc

let reap daemons ~grace =
  let deadline = Unix.gettimeofday () +. grace in
  let poll d =
    if d.d_status = None then
      match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
      | 0, _ -> ()
      | _, st -> d.d_status <- Some st
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> d.d_status <- Some (Unix.WEXITED 0)
  in
  let pending () = List.exists (fun d -> d.d_status = None) daemons in
  List.iter poll daemons;
  while pending () && Unix.gettimeofday () < deadline do
    (try ignore (Unix.select [] [] [] 0.05) with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    List.iter poll daemons
  done;
  (* Escalate: anything still alive is beyond graceful shutdown. *)
  List.iter
    (fun d ->
      if d.d_status = None then begin
        (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
        match Unix.waitpid [] d.d_pid with
        | _, st -> d.d_status <- Some st
        | exception Unix.Unix_error _ -> d.d_status <- Some (Unix.WSIGNALED Sys.sigkill)
      end)
    daemons

let spawn_daemon cfg ~cport ~host =
  let log = Filename.concat cfg.c_out_dir (Printf.sprintf "daemon-%d.log" host) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [
      cfg.c_splayd;
      "--connect";
      "127.0.0.1:" ^ string_of_int cport;
      "--host";
      string_of_int host;
      "--parent-pid";
      string_of_int (Unix.getpid ());
      "--seed";
      string_of_int (cfg.c_seed + host);
    ]
    @ (if cfg.c_trace then [ "--trace" ] else [])
    @ if cfg.c_metrics then [ "--metrics" ] else []
  in
  let pid = Unix.create_process cfg.c_splayd (Array.of_list args) Unix.stdin fd fd in
  Unix.close fd;
  {
    d_host = host;
    d_pid = pid;
    d_log = log;
    d_conn = None;
    d_data_port = 0;
    d_heartbeats = 0;
    d_last_seen = 0.0;
    d_bye = false;
    d_status = None;
  }

let run cfg =
  Live_apps.init ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p cfg.c_out_dir;
  (* Control listener the daemons dial back to. *)
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 128;
  let cport =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let daemons = List.init cfg.c_daemons (fun h -> spawn_daemon cfg ~cport ~host:h) in
  write_state cfg.c_out_dir daemons;
  (* Reap on every exit path; the daemons' orphan watch covers SIGKILL. *)
  let fatal_signal code _ =
    reap daemons ~grace:0.0;
    Stdlib.exit code
  in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fatal_signal 130)) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fatal_signal 143)) in
  at_exit (fun () -> reap daemons ~grace:0.0);
  (* The controller's endpoint has a host id no daemon has: the one after
     theirs, for which every loop's testbed has a slot. *)
  let ctl_host = cfg.c_daemons in
  let loop = Loop.create ~hosts:(ctl_host + 1) () in
  let eng = Loop.engine loop in
  let env = Env.create (Loop.net loop) ~me:(Addr.make ctl_host 1) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let reports = ref [] in
  let logs = Deploy.logs ~cap:100_000 in
  let done_seen = ref false in
  let chunks : (int * string, Buffer.t) Hashtbl.t = Hashtbl.create 8 in
  let calls = Hashtbl.create 8 in
  let find_daemon h = List.find_opt (fun d -> d.d_host = h) daemons in
  (* A call to a daemon leaves as an App frame on its control connection,
     counted by procedure. *)
  Net.set_remote (Loop.net loop)
    ~local:(fun h -> h = ctl_host)
    ~route:(fun ~src ~dst ~size ~arrival:_ ~up_wait:_ ~ctx:_ payload ->
      match (find_daemon dst.Addr.host, Rpc.payload_to_value payload) with
      | Some { d_conn = Some c; _ }, Some pv ->
          (match Codec.member "proc" pv with
          | Codec.String p ->
              Hashtbl.replace calls p (1 + Option.value ~default:0 (Hashtbl.find_opt calls p))
          | _ -> ()
          | exception Codec.Parse_error _ -> () (* a reply *));
          Conn.send c (Wire.App { src; dst; size; payload = pv })
      | _ -> ());
  Rpc.handle env Daemon.proc_heartbeat (fun h ->
      Option.iter
        (fun d ->
          d.d_heartbeats <- d.d_heartbeats + 1;
          d.d_last_seen <- Engine.now eng)
        (find_daemon h));
  let on_msg _conn msg =
    match msg with
    | Wire.App { src; dst; size; payload } when dst.Addr.host = ctl_host ->
        Conn.deliver loop ~src ~dst ~size payload
    | Wire.Logline { time; node; level; text } ->
        Deploy.log_add logs ~time ~level ~node text;
        if Contract.is_report text then begin
          reports := (node, text) :: !reports;
          if String.length text >= 11 && String.sub text 0 11 = "REPORT done" then
            done_seen := true
        end
    | Wire.Chunk { host; kind; data; final = _ } ->
        let key = (host, kind) in
        let buf =
          match Hashtbl.find_opt chunks key with
          | Some b -> b
          | None ->
              let b = Buffer.create 65536 in
              Hashtbl.replace chunks key b;
              b
        in
        Buffer.add_string buf data
    | Wire.Bye { host } -> (
        match find_daemon host with Some d -> d.d_bye <- true | None -> ())
    | _ -> ()
  in
  ignore
    (Loop.watch loop lfd
       ~on_read:(fun () ->
         match Unix.accept lfd with
         | fd, _ ->
             (* The first message on any control connection is Hello;
                bind the connection to its daemon then. *)
             ignore
               (Conn.attach loop fd
                 ~on_msg:(fun cc m ->
                   match m with
                   | Wire.Hello { host; pid; data_port } -> (
                       match find_daemon host with
                       | Some d when d.d_pid = pid ->
                           d.d_conn <- Some cc;
                           d.d_data_port <- data_port
                       | _ ->
                           fail "unexpected hello from host=%d pid=%d" host pid;
                           Conn.close cc "unexpected hello")
                   | m -> on_msg cc m)
                 ~on_close:(fun cc _reason ->
                   List.iter
                     (fun d -> match d.d_conn with Some c when c == cc -> d.d_conn <- None | _ -> ())
                     daemons))
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
       ~on_write:ignore);
  let t0 = Unix.gettimeofday () in
  let hard = t0 +. cfg.c_deadline in
  let phase name ~timeout cond =
    match
      Loop.run loop ~deadline:(Float.min hard (Unix.gettimeofday () +. timeout)) ~until:cond
    with
    | `Done -> true
    | `Deadline ->
        fail "%s timed out" name;
        false
  in
  let connected d = d.d_conn <> None in
  let need = cfg.c_desc.Descriptor.nb_splayd in
  let boot_ok =
    phase "daemon bootstrap" ~timeout:30.0 (fun () -> List.for_all connected daemons)
  in
  let alive = List.filter connected daemons in
  let job = 1 in
  let addr d = Addr.make d.d_host 1 in
  let tr = Deploy.transport env ~addr ~job in
  let tr =
    {
      tr with
      Deploy.start =
        (fun d a ~position ~nodes ->
          let ok = tr.Deploy.start d a ~position ~nodes in
          if not ok then fail "start of %s failed" (Addr.to_string a);
          ok);
    }
  in
  let desc =
    {
      Daemon.jd_app = cfg.c_app;
      jd_params = cfg.c_params;
      jd_limits = cfg.c_desc.Descriptor.limits;
      jd_log_level = cfg.c_log_level;
    }
  in
  (* Live daemons carry no testbed host records, so no criteria apply; a
     daemon that refused the job is no candidate. *)
  let rng = Rng.create cfg.c_seed in
  let refused = ref [] in
  let select n =
    Deploy.select rng
      ~alive:(fun d -> connected d && not (List.memq d !refused))
      ~host:(fun _ -> invalid_arg "live daemons have no testbed host")
      daemons n
  in
  let result = ref None in
  if boot_ok then begin
    (* Shared epoch: every daemon's virtual clock counts from here, so
       log timestamps and merged traces align across processes. *)
    let epoch = Unix.gettimeofday () in
    let peers = List.map (fun d -> (d.d_host, d.d_data_port)) alive in
    List.iter
      (fun d ->
        match d.d_conn with
        | Some c -> Conn.send c (Wire.Peers { epoch; ctl = ctl_host; peers })
        | None -> ())
      alive;
    (* Each daemon learns the job before its first REGISTER; a daemon
       that refuses it names the reason. *)
    ignore
      (Env.thread env ~name:"deploy" (fun () ->
           Deploy.fan_out ~spawn:tr.Deploy.spawn
             (List.map
                (fun d () ->
                  match Rpc.invoke env (addr d) ~timeout:10.0 Daemon.proc_job (job, desc) with
                  | Ok () -> ()
                  | Error e ->
                      refused := d :: !refused;
                      fail "job on daemon %d: %s" d.d_host (Rpc.error_to_string e))
                alive);
           result := Some (Deploy.deploy tr rng ~select ~job ~name:cfg.c_app cfg.c_desc)));
    ignore
      (phase "deploy" ~timeout:60.0 (fun () -> !result <> None || Engine.crashed eng <> []))
  end;
  let deployed =
    match !result with
    | Some (members, _) when List.length members < need ->
        fail "deploy: %d of %d instances registered (%d daemons alive)" (List.length members)
          need (List.length alive);
        false
    | Some _ -> !failures = []
    | None -> false
  in
  if deployed then begin
    (* Main phase: wait for the app's done report, or run the requested
       duration. Losing a daemon mid-run is a failure: its connection
       closed, or its heartbeats stopped for [unseen] seconds. *)
    let started = Unix.gettimeofday () in
    let unseen = 30.0 in
    let silent d = Engine.now eng -. d.d_last_seen > unseen in
    let lost () = List.exists (fun d -> d.d_conn = None || silent d) alive in
    let cond =
      if cfg.c_duration > 0.0 then fun () ->
        Unix.gettimeofday () -. started >= cfg.c_duration || lost ()
      else fun () -> !done_seen || lost ()
    in
    let window = Float.max 1.0 (hard -. Unix.gettimeofday ()) in
    ignore (phase "run" ~timeout:window cond);
    List.iter
      (fun d ->
        if d.d_conn = None then fail "daemon %d: connection lost mid-run" d.d_host
        else if silent d then fail "daemon %d: no heartbeat for %.0f s" d.d_host unseen)
      alive;
    if cfg.c_duration <= 0.0 && not !done_seen then fail "application never reported done"
  end;
  (* Graceful teardown: Shutdown, wait for Byes, then reap. *)
  List.iter
    (fun d -> match d.d_conn with Some c -> Conn.send c Wire.Shutdown | None -> ())
    daemons;
  ignore
    (Loop.run loop
       ~deadline:(Unix.gettimeofday () +. 10.0)
       ~until:(fun () -> List.for_all (fun d -> d.d_bye || d.d_conn = None) daemons));
  reap daemons ~grace:5.0;
  List.iter
    (fun d ->
      match d.d_status with
      | Some (Unix.WEXITED 0) | None -> ()
      | Some (Unix.WEXITED c) -> fail "daemon %d exited with code %d" d.d_host c
      | Some (Unix.WSIGNALED s) -> fail "daemon %d killed by signal %d" d.d_host s
      | Some (Unix.WSTOPPED s) -> fail "daemon %d stopped by signal %d" d.d_host s)
    daemons;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  (* Artifacts. Logs use the sim controller's JSONL schema; trace/metrics
     are the concatenated per-daemon dumps (id namespaces are disjoint by
     construction, and the metrics loader is line-oriented). *)
  Deploy.dump_logs logs ~path:(Filename.concat cfg.c_out_dir "logs.jsonl");
  let collect kind file =
    let parts =
      List.filter_map
        (fun d -> Option.map Buffer.contents (Hashtbl.find_opt chunks (d.d_host, kind)))
        daemons
    in
    if parts = [] then None
    else begin
      let path = Filename.concat cfg.c_out_dir file in
      let oc = open_out path in
      List.iter
        (fun p ->
          output_string oc p;
          if String.length p > 0 && p.[String.length p - 1] <> '\n' then output_char oc '\n')
        parts;
      close_out oc;
      Some path
    end
  in
  let trace_file = if cfg.c_trace then collect "trace" "trace.jsonl" else None in
  let metrics_file = if cfg.c_metrics then collect "metrics" "metrics.jsonl" else None in
  (if cfg.c_trace && trace_file = None then fail "no trace chunks collected");
  List.iter
    (fun (p, e) -> fail "controller process %s crashed: %s" (Engine.proc_name p) (Printexc.to_string e))
    (Engine.crashed eng);
  {
    r_ok = !failures = [];
    r_failures = List.rev !failures;
    r_reports = List.rev !reports;
    r_select = (match !result with Some (_, report) -> report | None -> snd (select 0));
    r_calls = List.sort compare (List.of_seq (Hashtbl.to_seq calls));
    r_heartbeats = List.map (fun d -> (d.d_host, d.d_heartbeats)) daemons;
    r_log_records = Deploy.log_lines logs;
    r_trace_file = trace_file;
    r_metrics_file = metrics_file;
    r_out_dir = cfg.c_out_dir;
  }

(* {1 Out-of-band job control: status / kill from the run directory} *)

let read_state dir =
  let path = state_file dir in
  let ic = open_in path in
  let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
  let v = Codec.decode line in
  let pid = Codec.to_int (Codec.member "controller_pid" v) in
  let ds =
    List.map
      (fun d ->
        ( Codec.to_int (Codec.member "host" d),
          Codec.to_int (Codec.member "pid" d),
          Codec.to_string (Codec.member "log" d) ))
      (Codec.to_list (Codec.member "daemons" v))
  in
  (pid, ds)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
  | exception Unix.Unix_error _ -> false

let status dir =
  let controller, ds = read_state dir in
  ( (controller, pid_alive controller),
    List.map (fun (host, pid, log) -> (host, pid, pid_alive pid, log)) ds )

let kill dir =
  let controller, ds = read_state dir in
  let targets = controller :: List.map (fun (_, pid, _) -> pid) ds in
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) targets;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let alive () = List.filter pid_alive targets in
  while alive () <> [] && Unix.gettimeofday () < deadline do
    try ignore (Unix.select [] [] [] 0.05) with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let leftover = alive () in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) leftover;
  List.length leftover
