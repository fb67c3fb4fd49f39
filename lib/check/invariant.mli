(** Protocol invariant oracles.

    A suite registers named predicates over the in-process state of a
    deployment and evaluates them at virtual-time checkpoints during a
    run and once more at quiescence. Two strengths:

    - {!Checkpoint} — a safety property that must hold at every
      observation point (e.g. at-most-once execution): checked at every
      checkpoint {e and} at quiescence;
    - {!Quiescence} — a convergence property that only has to hold after
      the fault schedule ends and the protocol has had time to repair
      (e.g. ring consistency, no lost keys): checked only at quiescence.

    Oracles run inside a simulation process and may block (a lookup-based
    oracle issues real RPCs); an oracle that raises is reported as a
    violation rather than crashing the run. *)

type phase = Checkpoint | Quiescence

type violation = {
  v_name : string;  (** invariant name, as registered *)
  v_at : float;  (** virtual time of the failed evaluation *)
  v_reason : string;  (** the oracle's explanation *)
}

val violation_to_string : violation -> string

type t

val create : unit -> t

val register : t -> ?phase:phase -> string -> (unit -> (unit, string) result) -> unit
(** Add a named oracle (default [phase] {!Quiescence}). [Error reason]
    reports a violation; evaluation order is registration order. *)

val eval : t -> at:float -> phase -> violation list
(** Evaluate the registry at one observation point: [eval t ~at
    Checkpoint] runs only the {!Checkpoint} oracles; [eval t ~at
    Quiescence] runs everything. An oracle that raises (other than the
    engine's kill signal) yields an ["oracle raised"] violation. *)
