(** Multicore fan-out for independent simulation trials.

    The bench harness runs many independent trials (one engine, one seed
    each); {!map} spreads them over OCaml domains while keeping every
    observable output — return values, trace, metrics — byte-identical to
    a sequential run. Each trial executes inside {!Splay_obs.Obs.capture}
    with a per-trial id base, and the recorded snapshots are merged back
    in trial-index order after all domains join.

    Trials must be self-contained: build your own engine from your own
    seed, return plain data, and do not write to shared mutable state or
    to [stdout] from inside a trial. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 (honours the
    {!Dpool.set_cap} test override). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items] computed on up to [jobs]
    domains ([jobs] defaults to 1 = run in the calling domain; it is
    clamped to the item count and, via {!Dpool.effective}, to the
    machine's core count — oversubscribing cores only serializes GC).
    Domains come from the persistent {!Dpool}, so repeated batches pay
    no spawn cost. Results keep list order. If any trial raises, the
    exception of the lowest-indexed failing trial is re-raised after all
    trials settle and their observability snapshots are merged.
    Identical output for any [jobs] value. *)
