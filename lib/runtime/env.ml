module Engine = Splay_sim.Engine

type 'a rpc_args = {
  size : 'a -> int;
  to_values : 'a -> Codec.value list;
  of_values : Codec.value list -> 'a;
}

type ('a, 'b) rpc_proc = {
  name : string;
  args : 'a rpc_args;
  result : 'b Codec.ty;
  id : ('a -> 'b) Type.Id.t;
}

type rpc_handler =
  | Handler : ('a, 'b) rpc_proc * ('a -> 'b) -> rpc_handler
  | Named : string * (Codec.value list -> Codec.value) -> rpc_handler

type t = {
  net : Net.t;
  me : Addr.t;
  mutable position : int;
  mutable nodes : Addr.t list;
  sandbox : Sandbox.t;
  log_level : Log.level;
  mutable log_t : Log.t option;
  env_rng : Splay_sim.Rng.t;
  procs : Engine.group;
  mutable ports : Addr.t list;
  mutable loss_rate : float;
  mutable stopped : bool;
  mutable stop_hooks : (unit -> unit) list;
  mutable rpc_pending_tbl : (int, rpc_call) Hashtbl.t option;
  mutable rpc_next_rid : int;
  mutable rpc_handlers : rpc_handler list;
  mutable rpc_bound : bool;
  mutable rpc_rng : Splay_sim.Rng.t option;
}

and rpc_call = Net.payload Engine.waker

let engine t = Net.engine t.net

let live_procs t = Engine.group_size t.procs

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter
      (fun a ->
        Net.unbind t.net a;
        Sandbox.socket_closed t.sandbox)
      t.ports;
    t.ports <- [];
    List.iter (fun h -> h ()) (List.rev t.stop_hooks);
    t.stop_hooks <- [];
    Engine.kill_group (engine t) t.procs
  end

(* Materialized on first use: most simulated instances never log, and a
   logger plus its rendered name cost ~10 words per instance. *)
let log t =
  match t.log_t with
  | Some l -> l
  | None ->
      let l = Log.create ~level:t.log_level ~name:(Addr.to_string t.me) (Net.engine t.net) in
      t.log_t <- Some l;
      l

let create ?(position = 1) ?(nodes = []) ?limits ?(log_level = Log.Info) net ~me =
  let sandbox = Sandbox.create ?limits () in
  let t =
    {
      net;
      me;
      position;
      nodes;
      sandbox;
      log_level;
      log_t = None;
      env_rng = Splay_sim.Rng.split (Engine.rng (Net.engine net));
      procs = Engine.group ();
      ports = [];
      loss_rate = 0.0;
      stopped = false;
      stop_hooks = [];
      rpc_pending_tbl = None;
      rpc_next_rid = 0;
      rpc_handlers = [];
      rpc_bound = false;
      rpc_rng = None;
    }
  in
  Sandbox.set_on_kill sandbox (fun reason ->
      Log.error (log t) "killed by sandbox: %s" reason;
      stop t);
  t

let thread t ?name f =
  if t.stopped then invalid_arg "Env.thread: instance stopped";
  let p = Engine.spawn ?name (engine t) f in
  Engine.join t.procs p;
  p

let periodic t interval f =
  thread t (fun () ->
      while true do
        Engine.sleep interval;
        f ()
      done)

(* Split lazily, on the first call that actually needs jitter: an eager
   split in [create] would advance [env_rng] for every instance and change
   the streams of every existing fixed-seed experiment. *)
let rpc_rng t =
  match t.rpc_rng with
  | Some r -> r
  | None ->
      let r = Splay_sim.Rng.split t.env_rng in
      t.rpc_rng <- Some r;
      r

let rpc_pending t =
  match t.rpc_pending_tbl with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 16 in
      t.rpc_pending_tbl <- Some h;
      h

let rpc_pending_opt t = t.rpc_pending_tbl

let sleep = Engine.sleep

let now t = Engine.now (engine t)

let on_stop t h = if t.stopped then h () else t.stop_hooks <- h :: t.stop_hooks

let is_stopped t = t.stopped

let register_port t addr = t.ports <- addr :: t.ports
