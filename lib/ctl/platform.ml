module Engine = Splay_sim.Engine

type spec =
  | Planetlab of int
  | Modelnet of { hosts : int; bandwidth : float option }
  | Cluster of int
  | Mixed of { planetlab : int; modelnet : int }

type t = {
  engine : Engine.t;
  testbed : Testbed.t;
  net : Net.t;
  controller : Controller.t;
  daemons : Daemon.t list;
}

let build_testbed rng = function
  | Planetlab n -> Testbed.planetlab ~n rng
  | Modelnet { hosts; bandwidth } -> Testbed.modelnet ~hosts ?bandwidth rng
  | Cluster n -> Testbed.cluster ~n rng
  | Mixed { planetlab; modelnet } -> Testbed.mixed ~planetlab ~modelnet rng

let create ?(seed = 42) ?perturb ?daemon_config ?unseen_timeout spec =
  let engine = Engine.create ~seed () in
  Option.iter
    (fun max_extra_delay -> Engine.set_perturbation engine ~tie_shuffle:true ~max_extra_delay)
    perturb;
  let tb0 = build_testbed (Engine.rng engine) spec in
  let testbed, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create engine testbed in
  let controller = Controller.create ?unseen_timeout net ~host:ctl_host in
  let hosts = List.init (Testbed.size tb0) Fun.id in
  let daemons = Controller.boot_daemons ?config:daemon_config controller hosts in
  { engine; testbed; net; controller; daemons }

let engine t = t.engine
let net t = t.net
let testbed t = t.testbed
let controller t = t.controller
let daemons t = t.daemons
let now t = Engine.now t.engine

(* Teardown order: the daemons first (each kills its instances and its
   own endpoint), then the controller env. Its stop is deferred to a
   fresh event: main runs on that env, and stopping it from inside the
   finally would kill main mid-unwind. *)
let run ?until ?name t main =
  let ctl_env = Controller.env t.controller in
  let result = ref None in
  ignore
    (Env.thread ctl_env ?name (fun () ->
         Fun.protect
           ~finally:(fun () ->
             List.iter Daemon.shutdown t.daemons;
             ignore (Engine.schedule t.engine ~delay:0.0 (fun () -> Env.stop ctl_env)))
           (fun () -> result := Some (main t))));
  ignore (Engine.run ?until t.engine);
  Engine.check_crashed t.engine;
  match !result with Some r -> r | None -> failwith "Platform.run: main did not finish"
