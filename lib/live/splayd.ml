module Engine = Splay_sim.Engine
module Obs = Splay_obs.Obs
module Wire = Splay_ctl.Wire
module Daemon = Splay_ctl.Daemon

(* The real splayd: one OS process hosting application instances over the
   live loop. It connects to the controller, announces itself (Hello),
   learns the shared epoch, the controller's host id and the peer table
   (Peers), then runs the simulated daemon ([Daemon]) on the loop's net:
   the same splayd.* procedures and the same ctl.heartbeat, plus
   splayd.job, through which the controller names each job's
   application. Application instances run on the unmodified runtime
   ([Env] / [Rpc] / [Sb_socket]); only the cross-host leg of a send
   changes — [Net.set_remote] tunnels it as an App frame, over the
   control connection to the controller or over a data connection to
   the destination daemon, where it re-enters via [Net.deliver_remote]
   and lands as a local send would.

   Hygiene: the daemon knows the controller's PID and self-terminates
   when orphaned (getppid poll), when the control connection drops, or on
   a Shutdown — flushing its trace/metrics dump to the controller as
   Chunk frames first in the graceful case. *)

type config = {
  connect : string;  (** controller address, "host:port" *)
  host : int;
  parent : int;  (** controller PID; 0 disables the orphan watch *)
  seed : int;
  trace : bool;
  metrics : bool;
}

(* Per-daemon span/trace id namespace: host * ids_per_host. Keeps ids of the
   merged live trace collision-free across processes. *)
let ids_per_host = 10_000_000

type t = {
  cfg : config;
  loop : Loop.t;
  ctl_host : int;
  mutable ctl : Conn.t option;
  peers : (int, int) Hashtbl.t;  (* host -> data port *)
  peer_conns : (int, Conn.t) Hashtbl.t;
  jobs : (int, Daemon.job_spec) Hashtbl.t;
  mutable shutting_down : bool;
}

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let h = String.sub s 0 i and p = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt p with
      | Some p -> (h, p)
      | None -> invalid_arg ("bad address " ^ s))
  | None -> invalid_arg ("bad address " ^ s)

let connect_tcp host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let ip = try Unix.inet_addr_of_string host with Failure _ -> Unix.inet_addr_loopback in
  (try Unix.connect fd (Unix.ADDR_INET (ip, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.set_nonblock fd;
  fd

let hard_exit code =
  (* No graceful flushing: used for orphaning and lost controller, where
     the collector side is already gone. *)
  Stdlib.exit code

(* {1 Inter-daemon data plane} *)

let handle_data_msg t _conn msg =
  match msg with
  | Wire.App { src; dst; size; payload } when dst.Addr.host = t.cfg.host ->
      Conn.deliver t.loop ~src ~dst ~size payload
  | _ -> () (* misrouted or non-data message: drop *)

let peer_conn t dsthost =
  match Hashtbl.find_opt t.peer_conns dsthost with
  | Some c when not (Conn.closed c) -> Some c
  | _ -> (
      match Hashtbl.find_opt t.peers dsthost with
      | None -> None
      | Some port -> (
          match connect_tcp "127.0.0.1" port with
          | exception Unix.Unix_error _ -> None (* peer dead: drop, like a dead host *)
          | fd ->
              let c =
                Conn.attach t.loop fd ~on_msg:(handle_data_msg t)
                  ~on_close:(fun _ _ -> Hashtbl.remove t.peer_conns dsthost)
              in
              Hashtbl.replace t.peer_conns dsthost c;
              Some c))

(* The controller's RPCs travel on the control connection, the peers'
   on the data connections. *)
let route t ~src ~dst ~size ~arrival:_ ~up_wait:_ ~ctx:_ payload =
  match Rpc.payload_to_value payload with
  | None -> () (* payload kind with no wire form *)
  | Some pv -> (
      let conn = if dst.Addr.host = t.ctl_host then t.ctl else peer_conn t dst.Addr.host in
      match conn with
      | None -> ()
      | Some c -> Conn.send c (Wire.App { src; dst; size; payload = pv }))

(* {1 The daemon}

   The simulated daemon's handlers with the host's own limits: the
   administrator caps nothing here, since the RSS check reads the whole
   process and the simulated 16 MB cap would kill every instance. The
   heartbeat runs at the live loop's pace. *)
let daemon_config =
  { Daemon.splay_config with admin_limits = Sandbox.unlimited; heartbeat_interval = 0.5 }

(* A job's spec from its description: the registered application's main
   under a real-resource leg of the sandbox, which polls the process RSS
   and enforces the memory cap with the same fatal path as simulated
   accounting (the Violation raise is swallowed: on_kill has already
   stopped the instance, which kills this monitor too), and a log sink
   that streams every record to the controller, the sandbox's own kill
   message included. *)
let job_spec t (job, d) =
  match Registry.find d.Daemon.jd_app with
  | None -> failwith (Printf.sprintf "unknown application %S" d.jd_app)
  | Some main ->
      let main env =
        if d.jd_limits.Sandbox.max_memory < max_int then
          ignore
            (Env.periodic env 0.25 (fun () ->
                 try Sandbox.check_rss env.Env.sandbox (Rss.sample ())
                 with Sandbox.Violation _ -> ()));
        main ~params:d.jd_params env
      in
      let forward ~time ~level ~node text =
        Option.iter (fun c -> Conn.send c (Wire.Logline { time; node; level; text })) t.ctl
      in
      Hashtbl.replace t.jobs job
        {
          Daemon.js_name = d.jd_app;
          js_main = main;
          js_limits = d.jd_limits;
          js_log_sink = Log.Forward forward;
          js_log_level = d.jd_log_level;
          js_loss = 0.0;
        }

(* {1 Telemetry} *)

let send_chunks t ~kind data =
  match t.ctl with
  | None -> ()
  | Some c ->
      let n = String.length data in
      if n = 0 then Conn.send c (Wire.Chunk { host = t.cfg.host; kind; data = ""; final = true })
      else begin
        let chunk = 200_000 in
        let off = ref 0 in
        while !off < n do
          let len = min chunk (n - !off) in
          let final = !off + len >= n in
          Conn.send c
            (Wire.Chunk { host = t.cfg.host; kind; data = String.sub data !off len; final });
          off := !off + len
        done
      end

(* {1 Main} *)

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.trace || cfg.metrics then begin
    Obs.enabled := cfg.trace;
    Obs.metrics_enabled := cfg.metrics;
    ignore (Obs.state_install (Obs.state_create ~ids_base:(cfg.host * ids_per_host) ()))
  end;
  (* Data listener: where peer daemons connect to deliver app traffic. *)
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 128;
  let data_port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  (* Control connection; handshake runs blocking, before the loop exists. *)
  let chost, cport = parse_hostport cfg.connect in
  let cfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect cfd (Unix.ADDR_INET (Unix.inet_addr_of_string chost, cport));
  write_all cfd (Wire.frame_msg (Wire.Hello { host = cfg.host; pid = Unix.getpid (); data_port }));
  let dec = Wire.decoder () in
  let buf = Bytes.create 4096 in
  let rec wait_peers () =
    match Wire.next_msg dec with
    | Some (Wire.Peers { epoch; ctl; peers }) -> (epoch, ctl, peers)
    | Some _ -> wait_peers ()
    | None -> (
        match Unix.read cfd buf 0 (Bytes.length buf) with
        | 0 -> failwith "controller closed during handshake"
        | n ->
            Wire.feed dec buf 0 n;
            wait_peers ())
  in
  let epoch, ctl_host, peers = wait_peers () in
  let hosts = 1 + List.fold_left (fun m (h, _) -> max m h) (max cfg.host ctl_host) peers in
  let loop = Loop.create ~seed:(cfg.seed + cfg.host) ~hosts ~epoch () in
  let t =
    {
      cfg;
      loop;
      ctl_host;
      ctl = None;
      peers = Hashtbl.create 32;
      peer_conns = Hashtbl.create 32;
      jobs = Hashtbl.create 4;
      shutting_down = false;
    }
  in
  List.iter (fun (h, p) -> if h <> cfg.host then Hashtbl.replace t.peers h p) peers;
  let controller = Addr.make ctl_host 1 in
  let d =
    Daemon.start (Loop.net loop) ~host:cfg.host ~controller ~config:daemon_config
      ~lookup_job:(Hashtbl.find_opt t.jobs) ()
  in
  Rpc.handle (Daemon.env d) Daemon.proc_job (job_spec t);
  Net.set_remote (Loop.net loop) ~local:(fun h -> h = cfg.host) ~route:(route t);
  let on_msg conn = function
    | Wire.Shutdown ->
        if not t.shutting_down then begin
          t.shutting_down <- true;
          Daemon.shutdown d
        end
    | msg -> handle_data_msg t conn msg
  in
  let ctl =
    Conn.attach ~dec loop cfd ~on_msg ~on_close:(fun _ _ ->
        (* Controller gone: nothing left to report to. *)
        if not t.shutting_down then hard_exit 1)
  in
  t.ctl <- Some ctl;
  ignore
    (Loop.watch loop lfd
       ~on_read:(fun () ->
         match Unix.accept lfd with
         | fd, _ ->
             Unix.set_nonblock fd;
             ignore (Conn.attach loop fd ~on_msg:(handle_data_msg t) ~on_close:(fun _ _ -> ()))
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
       ~on_write:ignore);
  let eng = Loop.engine loop in
  (* Open the session at once: the first periodic heartbeat is half a
     second away, longer than a short run lasts. *)
  let denv = Daemon.env d in
  ignore
    (Env.thread denv (fun () ->
         ignore (Rpc.invoke denv controller ~timeout:30.0 Daemon.proc_heartbeat cfg.host)));
  if cfg.parent > 0 then
    ignore
      (Engine.spawn ~name:"orphan-watch" eng (fun () ->
           while true do
             Engine.sleep 0.25;
             if Unix.getppid () <> cfg.parent then hard_exit 1
           done));
  (match Loop.run loop ~until:(fun () -> t.shutting_down) with
  | `Done | `Deadline -> ());
  (* Let the Env.stop kill events scheduled by the shutdown fire. *)
  ignore (Engine.run ~until:(Loop.elapsed loop +. 0.001) eng);
  (* Graceful exit: stream the observability dump, say goodbye, drain. *)
  if cfg.trace then send_chunks t ~kind:"trace" (Obs.trace_jsonl ());
  if cfg.metrics then send_chunks t ~kind:"metrics" (Obs.metrics_plane_jsonl ());
  (match t.ctl with
  | Some c ->
      Conn.send c (Wire.Bye { host = cfg.host });
      Conn.flush_blocking c
  | None -> ());
  0
