(** Scribe (Castro et al.) — large-scale decentralized publish/subscribe on
    Pastry.

    Each topic has a rendezvous node (the Pastry owner of the topic id).
    Subscriptions route towards the rendezvous, and every node on the path
    becomes a forwarder: it records the previous hop as a child, so the
    reverse paths form a multicast tree rooted at the rendezvous. A publish
    routes to the rendezvous and flows down the tree. *)

type t
(** One Scribe instance, layered on a {!Pastry.node} (sharing its RPC
    endpoint and identifier space). *)

val create : Pastry.node -> t

val topic_of_name : t -> string -> int
(** Hash a topic name into the identifier space. *)

val subscribe : t -> topic:int -> unit
(** Join the topic's multicast tree. Blocking. Idempotent. *)

val publish : t -> topic:int -> payload:string -> unit
(** Route the event to the rendezvous, which disseminates it down the
    tree. Blocking until handed to the rendezvous. *)

val on_deliver : t -> (topic:int -> payload:string -> unit) -> unit
(** Callback for events of subscribed topics. *)

val delivered : t -> (int * string) list
(** Events delivered locally, most recent first. *)
