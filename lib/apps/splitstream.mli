(** SplitStream (Castro et al.) — high-bandwidth content dissemination by
    striping over multiple Scribe trees.

    The content is split into blocks assigned round-robin to [stripes]
    stripes; each stripe is a Scribe topic whose id starts with a distinct
    digit, so the trees are rooted at different rendezvous nodes and their
    interior nodes are (with high probability) disjoint — no single node
    carries the whole forwarding load. *)

type t

val create : Scribe.t -> stripes:int -> name:string -> t
(** [name] identifies the content; stripe topics derive from it. *)

val subscribe_all : t -> unit
(** Join every stripe tree. Blocking. *)

val send : t -> content:string -> block_size:int -> unit
(** Publisher side: split and publish all blocks. Blocking per block
    hand-off to the rendezvous. *)

val reassembled : t -> string option
(** The content, once every block has arrived. *)
