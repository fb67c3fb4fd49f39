(** Seed sweeps, shrinking and replay — the [splay check] engine.

    A sweep runs [suite × seed] trials through {!Splay_sim.Pool}, so a
    multicore sweep finds {e exactly} the same failing seeds as a
    sequential one ([--jobs] changes wall-clock time, nothing else). For
    each failing suite the smallest failing seed is greedily shrunk to a
    minimal nemesis that still fails, optionally re-run with tracing to
    dump an observability trace, and turned into a one-line replay
    command. *)

val run_one :
  suite:Suite.t -> seed:int -> ?nemesis:Nemesis.t -> perturb:bool -> unit -> Suite.outcome
(** One trial. [nemesis] defaults to the generated fault schedule for
    [(suite, seed)] — a pure function of the pair (the generator RNG is
    seeded from the suite name and the seed, independently of the
    trial's engine streams). *)

type failure = {
  f_suite : string;
  f_seed : int;  (** smallest failing seed of the suite *)
  f_outcome : Suite.outcome;  (** as found by the sweep *)
  f_shrunk : Suite.outcome;  (** under the minimal nemesis *)
  f_shrink_steps : int;  (** successful reduction steps *)
  f_replay : string;
      (** the [splay check --suite … --seed … --nemesis '…'] line that
          reproduces the minimal reproducer exactly *)
  f_trace : string option;  (** trace file of the minimal reproducer *)
}

type suite_report = {
  r_suite : string;
  r_seeds : int;  (** seeds swept *)
  r_failing : int list;  (** failing seeds, in sweep order *)
}

type report = { rep_suites : suite_report list; rep_failures : failure list; rep_trials : int }

val failed : report -> bool

val sweep :
  suites:Suite.t list ->
  seeds:int ->
  ?jobs:int ->
  ?base_seed:int ->
  ?perturb:bool ->
  ?shrink_failures:bool ->
  ?trace_dir:string ->
  unit ->
  report
(** Sweep seeds [base_seed .. base_seed + seeds - 1] over every suite
    ([jobs] domains, default 1; [base_seed] default 1; [perturb] default
    true). With [shrink_failures] (default true), each failing suite's
    smallest seed is shrunk greedily: the nemesis is replaced by the
    first {!Nemesis.shrink_candidates} variant that still fails, until
    none does (bounded at 32 steps); with [trace_dir], the minimal reproducer is
    re-run under tracing and its trace written to
    [<trace_dir>/check-<suite>-seed<N>.trace.jsonl]. *)
