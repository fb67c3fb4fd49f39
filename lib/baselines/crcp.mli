(** CRCP — the native C cooperative-dissemination comparator of Fig. 13.

    Same parallel-trees protocol as {!Splay_apps.Trees} (same tree
    construction, same round-robin block-to-tree mapping), with the one
    behavioural difference the paper calls out: a CRCP node sends chunks to
    its children {e sequentially} — each transfer is acknowledged before
    the next child is served — where the SPLAY version hands all children
    to the network at once. Framework overhead is zero (native code). *)

type config = {
  fanout : int;
  ntrees : int;
  block_size : int;
  start_delay : float;
  rpc_timeout : float;
}

val default_config : config

type node

val app : ?config:config -> file_size:int -> register:(node -> unit) -> Env.t -> unit
(** Deploy with [Descriptor.All]; position 1 is the source. *)

val position : node -> int
val completion_time : node -> float option
val children : node -> tree:int -> Addr.t list
