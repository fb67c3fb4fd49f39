(** The MIT (PDOS) C++ Chord comparator of Fig. 6(c).

    Same Chord protocol as {!Splay_apps.Chord_ft}, with the custom-layer
    optimizations the paper credits for its lower lookup delays: latency-
    aware finger tables built from network-coordinate estimates (proximity
    finger selection) and an aggressive stabilization schedule. *)

val app_config : Splay_apps.Chord_ft.config
