(** Small helpers mirroring SPLAY's [misc] library. *)

val between : int -> int -> int -> modulus:int -> incl_lo:bool -> incl_hi:bool -> bool
(** [between x a b ~modulus ~incl_lo ~incl_hi] tests whether [x] lies in the
    arc from [a] to [b] travelling clockwise on the identifier ring
    [Z/modulus], with each bound inclusive or exclusive. This is the
    [misc.between_c] primitive that Chord's pseudo-code leans on. When
    [a = b] the arc is the whole ring (minus the bounds if exclusive). *)

val ring_add : int -> int -> modulus:int -> int
(** Addition on the ring. *)

val ring_distance : int -> int -> modulus:int -> int
(** Clockwise distance from [a] to [b]. *)

val pow2 : int -> int
(** [2^k]; raises [Invalid_argument] outside [0..62]. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all if shorter). *)

val duration_to_string : float -> string
(** Human-readable seconds ("2m30s"). *)
