(** Registry of deployable applications for the live backend.

    A registered main runs unchanged under both execution backends — the
    simulated engine and the live loop — parameterized only by its
    [Env.t] and string parameters. *)

type main = params:(string * string) list -> Env.t -> unit

val register : string -> main -> unit
val find : string -> main option

val param_int : (string * string) list -> string -> int -> int
