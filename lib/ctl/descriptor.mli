(** Job descriptors.

    A SPLAY job is submitted together with a resource-reservation header
    embedded in a comment block:

    {v
    --[[ BEGIN SPLAY RESOURCES RESERVATION
    nb_splayd 1000
    nodes head 1
    max_mem 2097152
    END SPLAY RESOURCES RESERVATION ]]
    v}

    [nb_splayd] is the number of instances to deploy; [nodes head k] (or
    [nodes random k]) selects what bootstrap information each instance
    receives in [job.nodes]; the remaining keys tighten sandbox limits. *)

type bootstrap =
  | Head of int (** the first [k] nodes of the deployment sequence *)
  | Random_subset of int (** [k] random participating nodes *)
  | All (** every participating node *)

type t = {
  nb_splayd : int;
  bootstrap : bootstrap;
  limits : Splay_runtime.Sandbox.limits; (** controller-side restrictions *)
  loss : float;
      (** proportion of packets each instance drops on send, "to simulate
          lossy links and study their impact" (§3.4); default 0 *)
}

val default : t
(** One instance, [Head 1], no extra restrictions. *)

val make : ?bootstrap:bootstrap -> ?limits:Splay_runtime.Sandbox.limits -> ?loss:float -> int -> t

exception Syntax_error of string

val parse : string -> t
(** Parse a source file containing a reservation header. Unknown keys raise
    {!Syntax_error}; a missing header yields {!default}. Recognized keys:
    [nb_splayd <n>], [nodes head <k>], [nodes random <k>], [nodes all],
    [max_mem <bytes>], [max_sockets <n>], [max_fs <bytes>],
    [max_files <n>], [max_send <bytes>], [loss <fraction>]. *)
