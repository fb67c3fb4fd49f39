(* Receivers park on wakers in arrival order. A receiver that timed out
   or was killed leaves a settled waker in the queue (or, killed in the
   current instant, one whose kill event has yet to run): a send skips it,
   and once such stale entries are the majority the queue is compacted,
   so an idle channel holds O(receivers still waiting). A receiver killed
   after a send reached it, before it resumed, hands the message back. *)
type 'a t = { msgs : 'a Queue.t; receivers : 'a Engine.waker Queue.t; mutable stale : int }

let create () = { msgs = Queue.create (); receivers = Queue.create (); stale = 0 }

(* [v] goes to the first receiver still waiting, else into the queue: at
   its tail, or at its head when a dead receiver hands [v] [back]. *)
let rec deliver t v ~back =
  match Queue.take_opt t.receivers with
  | Some w when Engine.waiting w -> Engine.wake w v
  | Some _ ->
      if t.stale > 0 then t.stale <- t.stale - 1;
      deliver t v ~back
  | None when back ->
      let q = Queue.create () in
      Queue.add v q;
      Queue.transfer t.msgs q;
      Queue.transfer q t.msgs
  | None -> Queue.add v t.msgs

let send t v = deliver t v ~back:false

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
      (match Engine.woken w with Some v -> deliver t v ~back:true | None -> note_stale t);
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
