(** The daemon core: one splayd's instance table and the REGISTER / LIST
    / START / FREE lifecycle, written once for every daemon: {!Daemon},
    simulated or live, and the contract's simulated twin. A caller
    supplies its transport and how a fresh port's sandboxed env is built;
    the semantics live here. *)

type inst = {
  job : int;
  name : string;
  main : Env.t -> unit;  (** bound at REGISTER *)
  mutable env : Env.t;  (** replaced when a STOP re-arms the slot *)
  mutable started : bool;
}

type t

val create : host:Addr.host_id -> t

val all : t -> inst list
(** Newest first. *)

val count : t -> int
val find : t -> int -> inst option

val register : t -> job:int -> name:string -> main:(Env.t -> unit) -> (int -> Env.t) -> int
(** REGISTER: a new, unstarted instance on the next port (2000, 2001, …;
    ports are unique per daemon), its env built from that port. Returns
    the port. *)

val list : t -> port:int -> position:int -> nodes:Addr.t list -> (unit, string) result
(** LIST: set the instance's position and bootstrap nodes on its env. *)

val start : t -> job:int -> port:int -> (unit, string) result
(** START: run [main] in [Env.thread ~name:"NAME@HOST"]. Refused for an
    unknown port, an instance already started, or another job's
    instance. *)

val free : t -> port:int -> bool
(** FREE: stop and discard the instance; [false], and nothing happens,
    for an unknown port. *)

val remove : t -> inst -> unit
(** Stop and discard one instance. *)

val shutdown : t -> unit
(** Stop and discard every instance. *)

(** {1 Resource usage} *)

type usage = {
  mutable mem : int;
  mutable sockets : int;
  mutable fs : int;
  mutable fibers : int;
  mutable inflight : int;
}
(** Sandbox-accounted memory, sockets and fs bytes, live fibers and
    outstanding RPC calls. *)

val zero : unit -> usage
(** A fresh all-zero sum. *)

val add : usage -> Env.t -> unit
(** Add one instance's counters to the sum. *)

val usage : t -> usage
(** Summed over every instance in the table. *)
