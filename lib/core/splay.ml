(** SPLAY for OCaml — the user-facing facade.

    One import gives the whole stack: the simulation substrate, the testbed
    and network models, the application libraries (events, RPC, sandboxed
    sockets and filesystem, logging, serialization, locks), the controller
    and daemons, the churn manager, and the simulation-testing layer
    ({!Nemesis}, {!Invariant}, {!Check_suite}, {!Check_runner} — the
    machinery behind [splay check]). {!Platform} bundles the boilerplate
    of standing up a testbed with a controller and daemons, so an experiment
    reads:

    {[
      let p = Splay.Platform.create (Splay.Platform.Planetlab 400) in
      Splay.Platform.run p (fun p ->
          let dep =
            Splay.Controller.deploy (Splay.Platform.controller p)
              ~name:"chord" ~main:chord_main
              (Splay.Descriptor.make ~bootstrap:(Head 1) 1000)
          in
          ...)
    ]} *)

(* Simulation substrate *)
module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Eheap = Splay_sim.Eheap
module Ivar = Splay_sim.Ivar
module Channel = Splay_sim.Channel
module Pool = Splay_sim.Pool
module Dpool = Splay_sim.Dpool
module Par = Splay_sim.Par

(* Observability: deterministic tracing + metrics across all layers *)
module Obs = Splay_obs.Obs
module Trace_analysis = Splay_obs.Trace_analysis
module Metrics_analysis = Splay_obs.Metrics_analysis
module Obs_flags = Splay_obs.Obs_flags

(* Statistics and reporting *)
module Dist = Splay_stats.Dist
module Summary = Splay_stats.Summary
module Series = Splay_stats.Series
module Sink = Splay_stats.Sink
module Report = Splay_stats.Report

(* Network substrate *)
module Addr = Splay_net.Addr
module Topology = Splay_net.Topology
module Latency = Splay_net.Latency
module Testbed = Splay_net.Testbed
module Net = Splay_net.Net
module Fabric = Splay_net.Fabric

(* Application libraries *)
module Misc = Splay_runtime.Misc
module Crypto = Splay_runtime.Crypto
module Codec = Splay_runtime.Codec
module Sandbox = Splay_runtime.Sandbox
module Log = Splay_runtime.Log
module Env = Splay_runtime.Env
module Events = Splay_runtime.Events
module Sb_socket = Splay_runtime.Sb_socket
module Sb_stream = Splay_runtime.Sb_stream
module Sb_fs = Splay_runtime.Sb_fs
module Rpc = Splay_runtime.Rpc
module Telemetry = Splay_runtime.Telemetry
module Locks = Splay_runtime.Locks

(* Controller side *)
module Descriptor = Splay_ctl.Descriptor
module Daemon = Splay_ctl.Daemon
module Controller = Splay_ctl.Controller

(* Churn management *)
module Script = Splay_churn.Script
module Trace = Splay_churn.Trace
module Transform = Splay_churn.Transform
module Replayer = Splay_churn.Replayer

(* Simulation testing: seed sweeps, nemeses, invariants, shrinking *)
module Nemesis = Splay_check.Nemesis
module Invariant = Splay_check.Invariant
module Check_suite = Splay_check.Suite
module Check_runner = Splay_check.Runner

(** Testbed bring-up boilerplate: engine + testbed + network + controller +
    one daemon per host, in one call. *)
module Platform = struct
  type spec =
    | Planetlab of int (** n live wide-area hosts *)
    | Modelnet of { hosts : int; bandwidth : float option }
        (** emulated cluster on a 500-router transit-stub graph *)
    | Cluster of int (** LAN machines (the paper's 11-node cluster) *)
    | Mixed of { planetlab : int; modelnet : int }

  type t = {
    engine : Engine.t;
    testbed : Testbed.t;
    net : Net.t;
    controller : Controller.t;
    daemons : Daemon.t list;
    ctl_host : Addr.host_id;
  }

  let build_testbed rng = function
    | Planetlab n -> Testbed.planetlab ~n rng
    | Modelnet { hosts; bandwidth } -> Testbed.modelnet ~hosts ?bandwidth rng
    | Cluster n -> Testbed.cluster ~n rng
    | Mixed { planetlab; modelnet } -> Testbed.mixed ~planetlab ~modelnet rng

  let create ?(seed = 42) ?daemon_config ?unseen_timeout spec =
    let engine = Engine.create ~seed () in
    let tb0 = build_testbed (Engine.rng engine) spec in
    let testbed, ctl_host = Testbed.with_extra_host tb0 in
    let net = Net.create engine testbed in
    let controller = Controller.create ?unseen_timeout net ~host:ctl_host in
    let hosts = List.init (Testbed.size tb0) Fun.id in
    let daemons = Controller.boot_daemons ?config:daemon_config controller hosts in
    { engine; testbed; net; controller; daemons; ctl_host }

  let engine t = t.engine
  let net t = t.net
  let testbed t = t.testbed
  let controller t = t.controller
  let daemons t = t.daemons
  let now t = Engine.now t.engine

  (** Run [main] as a controller-side process, then drive the simulation to
      completion (or [until]). Crashed processes make the run fail fast —
      an experiment with a dying protocol is not a result. *)
  let run ?until t main =
    ignore (Env.thread (Controller.env t.controller) ~name:"experiment-main" (fun () -> main t));
    ignore (Engine.run ?until t.engine);
    Engine.check_crashed t.engine
end
