(** Epidemic dissemination on Erdős–Rényi random graphs — the ~35-line
    classic of §5.1: when a node receives a rumor for the first time it
    forwards it to [fanout] random peers. With fanout ≥ ln(N) + c the rumor
    reaches everyone with high probability. *)

type config = {
  fanout : int;
  rpc_timeout : float;
  oneway : bool;
      (** forward with {!Rpc.notify} (fire-and-forget, no reply, no fiber
          parked per forward) instead of an acknowledged [Rpc.invoke] from a
          spawned fiber. Default [false] — the acknowledged mode, whose
          fixed-seed traces predate this field. One-way is the mode for
          very large populations: the per-forward cost drops to one
          message, which is what a million-node flood needs. *)
}

val default_config : config
(** [{ fanout = 6; rpc_timeout = 10.0; oneway = false }] *)

type node

val app : ?config:config -> register:(node -> unit) -> Env.t -> unit
(** Peers are drawn from [job.nodes]; deploy with [Descriptor.All] (or a
    [Random_subset]) so every instance knows a sample of the population. *)

val broadcast : node -> string -> unit
(** Inject a rumor at this node. Blocking (returns when the local sends
    are issued, not when the rumor has spread). *)

val received : node -> string list
(** Rumors seen by this node, most recent first. *)

val has_received : node -> string -> bool
val is_stopped : node -> bool
