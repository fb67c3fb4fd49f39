(** The FreePastry 2.0 comparator of §5.3 (Figs. 7 and 8).

    Functionally the same Pastry protocol as {!Splay_apps.Pastry} — the
    paper stresses its implementation is "functionally identical" — but
    running on a Java cost model: each instance carries a JVM-scale
    resident footprint (instances share 3 JVMs per host, as the authors
    configured), message handling pays a serialization overhead, and both
    inflate with host contention. The daemon-side memory model then
    produces the paper's shapes: delays blow up as instance density grows
    and the host dies swapping near 180 instances (1,980 on the 11-node
    cluster). *)

val daemon_config : Splay_ctl.Daemon.config
(** Use as [Controller.boot_daemons ~config] for the hosts that run
    FreePastry: ~11.3 MB per instance against 2 GB hosts, and a
    noticeable per-instance scheduler cost. *)

val app_config : Splay_apps.Pastry.config
(** Pastry tuned as FreePastry: same protocol parameters, plus the Java
    per-hop processing overhead. *)
