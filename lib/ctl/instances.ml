type inst = {
  job : int;
  name : string;
  main : Env.t -> unit;
  mutable env : Env.t;
  mutable started : bool;
}

type t = { host : Addr.host_id; mutable insts : inst list; mutable next_port : int }

let create ~host = { host; insts = []; next_port = 2000 }
let all t = t.insts
let count t = List.length t.insts
let find t port = List.find_opt (fun i -> i.env.Env.me.Addr.port = port) t.insts

let register t ~job ~name ~main make_env =
  let port = t.next_port in
  t.next_port <- port + 1;
  let env = make_env port in
  t.insts <- { job; name; main; env; started = false } :: t.insts;
  port

let list t ~port ~position ~nodes =
  match find t port with
  | None -> Error "no such instance"
  | Some i ->
      i.env.Env.position <- position;
      i.env.Env.nodes <- nodes;
      Ok ()

let start t ~job ~port =
  match find t port with
  | None -> Error "no such instance"
  | Some i when i.started -> Error "already started"
  | Some i when i.job <> job -> Error "wrong job"
  | Some i ->
      i.started <- true;
      let env = i.env in
      ignore (Env.thread env ~name:(Printf.sprintf "%s@%d" i.name t.host) (fun () -> i.main env));
      Ok ()

let remove t inst =
  Env.stop inst.env;
  t.insts <- List.filter (fun i -> i != inst) t.insts

let free t ~port =
  match find t port with
  | Some i ->
      remove t i;
      true
  | None -> false

let shutdown t =
  List.iter (fun i -> Env.stop i.env) t.insts;
  t.insts <- []

type usage = {
  mutable mem : int;
  mutable sockets : int;
  mutable fs : int;
  mutable fibers : int;
  mutable inflight : int;
}

let zero () = { mem = 0; sockets = 0; fs = 0; fibers = 0; inflight = 0 }

let add u env =
  let sb = env.Env.sandbox in
  u.mem <- u.mem + Sandbox.memory_used sb;
  u.sockets <- u.sockets + Sandbox.sockets_open sb;
  u.fs <- u.fs + Sandbox.fs_used sb;
  u.fibers <- u.fibers + Env.live_procs env;
  u.inflight <- u.inflight + Telemetry.inflight_rpcs env

let usage t =
  let u = zero () in
  List.iter (fun i -> add u i.env) t.insts;
  u
