module Daemon = Splay_ctl.Daemon
module Sandbox = Splay_runtime.Sandbox
module Pastry = Splay_apps.Pastry

(* 3 JVMs of ~680 MB serving ~60 instances each at the 1,980-instance
   wall: ~11.3 MB of resident heap per instance. The scheduler cost per
   instance is an order of magnitude above SPLAY's coroutines. *)
let daemon_config =
  {
    Daemon.base_footprint = 11_300 * 1024;
    admin_limits = Sandbox.unlimited;
    heartbeat_interval = 60.0;
    cpu_per_instance = 0.004;
    (* past ~120 instances per host the JVMs spend their time in GC and
       the scheduler: a quadratic degradation that reproduces the
       exponential-looking blow-up of Fig. 7(b) beyond 1,600 total *)
    contention_extra =
      (fun n ->
        let over = Float.of_int (max 0 (n - 120)) in
        0.004 *. over *. over);
  }

let app_config =
  {
    Pastry.default_config with
    (* Java serialization + GC pressure on every message *)
    Pastry.per_hop_overhead = 0.003;
  }
