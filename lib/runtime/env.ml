module Engine = Splay_sim.Engine

(* A tracked process records its own index into the dense [procs] prefix,
   so the engine's exit hook can swap-remove it in O(1). [sidx = -1] marks
   a slot already removed (its process died, or [stop] detached it).
   [seq] is the spawn sequence number: swap-remove scrambles array order,
   and [stop] must kill in reverse spawn order — the order the previous
   cons-list representation killed in, which fixed-seed traces pin. *)
type proc_slot = { mutable sproc : Engine.proc; mutable sidx : int; seq : int }

type t = {
  net : Net.t;
  me : Addr.t;
  mutable position : int;
  mutable nodes : Addr.t list;
  sandbox : Sandbox.t;
  log_level : Log.level;
  mutable log_t : Log.t option;
  env_rng : Splay_sim.Rng.t;
  mutable procs : proc_slot array;
  mutable procs_len : int;
  mutable proc_seq : int;
  mutable ports : Addr.t list;
  mutable loss_rate : float;
  mutable stopped : bool;
  mutable stop_hooks : (unit -> unit) list;
  mutable rpc_pending_tbl : (int, rpc_call) Hashtbl.t option;
  mutable rpc_next_rid : int;
  mutable rpc_handlers : (string * (Codec.value list -> Codec.value)) list;
  mutable rpc_bound : bool;
  mutable rpc_rng : Splay_sim.Rng.t option;
}

and rpc_call = {
  call_env : t;
  call_rid : int;
  call_resolve : ((Codec.value, string) result, exn) result -> unit;
  mutable call_timer : Engine.event_id;
}

let engine t = Net.engine t.net

let live_procs t = t.procs_len

let untrack t s =
  let i = s.sidx in
  if i >= 0 then begin
    let last = t.procs_len - 1 in
    t.procs_len <- last;
    if i < last then begin
      let moved = t.procs.(last) in
      t.procs.(i) <- moved;
      moved.sidx <- i
    end;
    s.sidx <- -1;
    (* An empty instance drops its whole table: otherwise the stale cell
       past the prefix would keep the last dead process reachable, and at
       a million mostly-idle instances those are the only dead handles. *)
    if last = 0 then t.procs <- [||]
  end

let track t p =
  let s = { sproc = p; sidx = t.procs_len; seq = t.proc_seq } in
  t.proc_seq <- t.proc_seq + 1;
  let cap = Array.length t.procs in
  if t.procs_len = cap then begin
    let grown = Array.make (if cap = 0 then 4 else cap * 2) s in
    Array.blit t.procs 0 grown 0 t.procs_len;
    t.procs <- grown
  end;
  t.procs.(t.procs_len) <- s;
  t.procs_len <- t.procs_len + 1;
  (* Runs immediately if [p] already finished, so no dead process is ever
     left tracked. *)
  Engine.on_exit p (fun () -> untrack t s)

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
    let eng = engine t in
    (* Snapshot and detach before killing: each kill fires the victim's
       exit hook, which must find [sidx = -1] and leave the (already reset)
       table alone. Kill newest-first by spawn sequence — swap-remove has
       scrambled array positions, but kill order at an instant is visible
       in fixed-seed traces and must stay what the cons-list gave. *)
    let procs = Array.sub t.procs 0 t.procs_len in
    t.procs <- [||];
    t.procs_len <- 0;
    Array.sort (fun a b -> compare b.seq a.seq) procs;
    (* Kill own process last: self-kill raises and unwinds the caller. *)
    let self = try Some (Engine.self ()) with Effect.Unhandled _ -> None in
    let self_tracked = ref false in
    Array.iter
      (fun s ->
        if s.sidx >= 0 then begin
          s.sidx <- -1;
          match self with
          | Some sp when s.sproc == sp -> self_tracked := true
          | _ -> Engine.kill eng s.sproc
        end)
      procs;
    if !self_tracked then
      match self with Some sp -> Engine.kill eng sp | None -> ()
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
      procs = [||];
      procs_len = 0;
      proc_seq = 0;
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
  track t p;
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
