(** Serialization: the [json] + [llenc] pair of SPLAY's library stack.

    A message's wire form is a structured {!value}; {!encode} renders it in
    a compact JSON-compatible text form and {!decode} parses it back.
    {!frame}/{!unframe} add the length-prefixed message demarcation that
    [llenc] provides over stream transports.

    A message type {!ty} connects an OCaml type to that wire form. In the
    simulator an RPC argument or result travels as its OCaml value and
    the network model charges [size x] bytes, the length of its encoding,
    computed without building it; only a transport that leaves the
    process (the live daemons' tunnels) calls [to_value] and [of_value]. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Assoc of (string * value) list

exception Parse_error of string

val encode : value -> string
(** Compact JSON text. Strings are escaped; floats use a round-trippable
    representation. *)

val decode : string -> value
(** Parse a JSON text. Raises {!Parse_error} on malformed input. *)

val encoded_size : value -> int
(** [String.length (encode v)] without building the intermediate string. *)

val frame : string -> string
(** Length-prefixed message: decimal length, ['\n'], payload. *)

val unframe : string -> pos:int -> (string * int) option
(** [unframe buf ~pos] extracts the next complete frame starting at [pos]:
    [Some (payload, next_pos)], or [None] if the buffer does not yet hold a
    complete frame. Raises {!Parse_error} on a corrupt header. *)

(** Accessors raising {!Parse_error} on shape mismatch — RPC handlers use
    these to destructure arguments. *)

val to_int : value -> int
val to_float : value -> float
(** [to_float] accepts both [Int] and [Float]. *)

val to_string : value -> string
val to_bool : value -> bool
val to_list : value -> value list
val member : string -> value -> value
(** Field of an [Assoc]; {!Parse_error} if absent. *)

val equal : value -> value -> bool

(** {1 Message types} *)

type 'a ty = {
  size : 'a -> int;  (** [size x = encoded_size (to_value x)], for every [x] *)
  to_value : 'a -> value;
  of_value : value -> 'a;  (** raises {!Parse_error} on a wrong shape *)
}

val value : value ty
(** The tree itself: the untyped instance. *)

val int : int ty
val string : string ty
val bool : bool ty

val unit : unit ty
(** [Null]. *)

val option : 'a ty -> 'a option ty
(** [None] is [Null], [Some x] is [x]'s own form; so [x] itself must never
    encode as [Null]. *)

val list : 'a ty -> 'a list ty

val record2 : string -> 'a ty -> string -> 'b ty -> ('a * 'b) ty
(** [record2 k1 t1 k2 t2] is the object [{k1: a, k2: b}] of the pair
    [(a, b)]. Parsing takes the fields by name in any order. *)
