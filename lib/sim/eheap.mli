(** Specialized 4-ary min-heap on an inlined [(at, seq)] key — the event
    queue of the simulation engine, also reused for Dijkstra in the
    topology model.

    Unlike a generic comparator heap, the keys are stored in parallel
    unboxed columns and compared with two scalar loads — no closure call,
    no float boxing. The columns are paged ({!Pages}): past one page the
    heap grows by a page and never copies an entry, and a heap that
    empties from past one page holds no page. The order is strictly lexicographic on [(at, seq)];
    when callers hand out unique [seq] values the pop sequence is exactly
    sorted order, i.e. FIFO among entries that share [at].

    Tie-break policy: [seq] is an opaque ordering key, not necessarily an
    arrival counter — the heap only requires that callers keep it unique
    per [at]. The engine exploits this as its tie-break policy hook: the
    default policy passes the arrival sequence (FIFO), while the schedule
    perturbation of {!Splay_sim.Engine.set_perturbation} passes a key whose
    high bits are a deterministic random draw and whose low bits keep the
    arrival sequence, shuffling same-instant order while preserving a
    total, reproducible order. *)

type 'a t

type fcell = Splay_obs.Obs.clock = { mutable v : float }
(** A flat float cell (the type {!Splay_obs.Obs} reads its clock from): reading [v] through a known record type loads an
    unboxed double, where a float-returning call across modules boxes its
    result. *)

val create : dummy:'a -> 'a t
(** An empty heap, holding no page. [dummy] fills the unused slots of
    the payload column, so no popped or dropped payload stays reachable
    through it. *)

val size : 'a t -> int

val push : 'a t -> at:fcell -> seq:int -> 'a -> unit
(** Insert [x] keyed on [(at.v, seq)]. The key travels in a flat cell the
    caller owns (and may reuse at once), so a computed key is not boxed
    for the call. *)

val min_at : 'a t -> float
(** The [at] key of the minimum entry, or [infinity] when empty. The
    result is a float returned across a module boundary, so it is boxed
    (2 words) per call; hot loops read {!keys} instead. *)

val keys : 'a t -> float array
(** The first page of the [at] keys in heap order: when [size t > 0],
    index 0 is the minimum key. Valid until the next {!push}, pop or
    {!filter_in_place} (which may replace or drop the page); an unboxed
    read for the engine's run loops. *)

val seqs : 'a t -> int array
(** The [seq] keys in heap order, valid like {!keys}: index 0 breaks a
    tie between two heaps' minimum [at] keys. *)

val pop : 'a t -> 'a option
(** Remove and return the payload of the minimum entry. *)

val pop_or : 'a t -> 'a -> 'a
(** [pop_or t dflt] removes and returns the payload of the minimum entry,
    or returns [dflt] when empty. Allocation-free alternative to {!pop}
    for hot loops with a natural sentinel payload. *)

val top_or : 'a t -> 'a -> 'a
(** Payload of the minimum entry without removing it, or [dflt] when
    empty. *)

val popped_cell : 'a t -> fcell
(** The cell holding the [at] key of the last entry removed by {!pop} or
    {!pop_or} ([nan] before the first pop); the same cell for the heap's
    whole life. Lets callers keep keys out of their payloads: the engine's
    event records carry no [at] field and read the clock value from here,
    unboxed. *)

val filter_in_place : 'a t -> ('a -> bool) -> unit
(** Drop every entry whose payload fails the predicate, then re-heapify
    (O(n)). The engine uses this to compact cancelled events out of the
    queue. *)
