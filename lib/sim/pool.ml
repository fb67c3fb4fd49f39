(* Multicore trial fan-out.

   A trial is an independent simulation: it builds its own engine from its
   own seed and returns plain data. Those are embarrassingly parallel, so
   the bench harness hands the trial list here and we spread it over
   [jobs] domains with a shared atomic cursor (work stealing by index).

   Execution rides on {!Dpool}: a persistent pool of parked worker
   domains (no per-batch spawn/join cost), with [jobs] clamped to the
   machine's core count. On a 1-core box jobs=2 therefore runs the plain
   sequential loop instead of serializing every minor-GC rendezvous
   across two oversubscribed domains — the PR 6 fan-out regression.

   Determinism contract: the results AND the observability side effects
   are byte-identical for any [jobs]. Each trial runs inside
   [Obs.capture], which gives it a fresh domain-local recording state
   seeded with a per-trial id base; after all domains join, the snapshots
   are absorbed into the caller's state in trial-index order. Nothing a
   trial records can leak out of order, and nothing in the caller's state
   is visible to trials. *)

module Obs = Splay_obs.Obs

(* Span/trace ids of trial [i] start at [(i+1) * ids_stride]: unique per
   trial as long as a single trial opens fewer than 16M spans. *)
let ids_stride = 1 lsl 24

let default_jobs () = Dpool.effective max_int

type 'b outcome = Value of 'b | Raised of exn * Printexc.raw_backtrace

let run_trial f arr i =
  Obs.capture ~ids_base:((i + 1) * ids_stride) (fun () ->
      match f arr.(i) with
      | v -> Value v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ()))

let map ?(jobs = 1) f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = if jobs < 1 then 1 else if jobs > n then n else jobs in
  let results = Array.make n None in
  let workers = Dpool.effective jobs in
  if workers <= 1 then
    for i = 0 to n - 1 do
      results.(i) <- Some (run_trial f arr i)
    done
  else begin
    let next = Atomic.make 0 in
    Dpool.run ~workers (fun () ->
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i < n then results.(i) <- Some (run_trial f arr i)
          else continue := false
        done)
  end;
  (* trial-index-ordered merge: same bytes whatever [jobs] was *)
  Array.iter (function Some (_, snap) -> Obs.absorb snap | None -> ()) results;
  Array.to_list
    (Array.map
       (function
         | Some (Value v, _) -> v
         | Some (Raised (e, bt), _) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)
