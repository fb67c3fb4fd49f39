(** Built-in deployable applications for the live backend.

    The same mains run under the simulated engine and the live loop; all
    invariant evidence is emitted as structured ["REPORT ..."] log lines
    (see {!Contract}). *)

val init : unit -> unit
(** Register the built-in applications (idempotent): ["chord"], a
    warm-started Chord ring over the deployment membership whose
    lowest-position instance drives [lookups] seeded lookups. Parameters:
    [m] (id bits, default 16), [lookups] (default 0), [seed]
    (default 42). *)
