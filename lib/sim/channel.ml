(* Receivers park on wakers in arrival order. A receiver that timed out
   or was killed leaves a settled waker in the queue (or, killed in the
   current instant, one whose kill event has yet to run): a send skips it,
   and once such stale entries are the majority the queue is compacted,
   so an idle channel holds O(receivers still waiting). [stale] may
   over-count (a receiver killed after a send woke it is no longer
   queued), which only brings a compaction forward. *)
type 'a t = { msgs : 'a Queue.t; receivers : 'a Engine.waker Queue.t; mutable stale : int }

let create () = { msgs = Queue.create (); receivers = Queue.create (); stale = 0 }

let rec send t v =
  match Queue.take_opt t.receivers with
  | None -> Queue.add v t.msgs
  | Some w ->
      if Engine.waiting w then Engine.wake w v
      else begin
        if t.stale > 0 then t.stale <- t.stale - 1;
        send t v
      end

let try_recv t = Queue.take_opt t.msgs

let note_stale t =
  t.stale <- t.stale + 1;
  if t.stale > 8 && 2 * t.stale > Queue.length t.receivers then begin
    let live = Queue.create () in
    Queue.iter (fun w -> if Engine.waiting w then Queue.add w live) t.receivers;
    Queue.clear t.receivers;
    Queue.transfer live t.receivers;
    t.stale <- 0
  end

let park t =
  let w = Engine.waker (Engine.engine ()) in
  Queue.add w t.receivers;
  w

(* Any exception ends the wait (a timeout or a kill) with the waker
   still queued, unless a send already took it. *)
let await t w =
  match Engine.await w with
  | v -> v
  | exception e ->
      note_stale t;
      raise e

let recv t = match Queue.take_opt t.msgs with Some v -> v | None -> await t (park t)

let recv_timeout t d =
  match Queue.take_opt t.msgs with
  | Some v -> Some v
  | None -> (
      let w = park t in
      Engine.timeout w d;
      match await t w with v -> Some v | exception Engine.Timed_out -> None)

let length t = Queue.length t.msgs
