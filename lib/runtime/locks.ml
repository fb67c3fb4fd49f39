module Engine = Splay_sim.Engine

(* Waiters park on wakers in arrival order; [unlock] skips a waiter
   killed while queued, also one killed in the same instant, whose waker
   settles only when its kill event runs. A waiter killed after the lock
   reached it, before it resumed, passes the lock on. *)
type t = { mutable held : bool; queue : unit Engine.waker Queue.t }

let create () = { held = false; queue = Queue.create () }

let rec wake_next t =
  match Queue.take_opt t.queue with
  | None -> t.held <- false
  | Some w ->
      if Engine.waiting w then Engine.wake w () (* lock stays held, ownership transfers *)
      else wake_next t

let lock t =
  if not t.held then t.held <- true
  else begin
    let w = Engine.waker (Engine.engine ()) in
    Queue.add w t.queue;
    match Engine.await w with
    | () -> ()
    | exception e ->
        if Engine.woken w <> None then wake_next t;
        raise e
  end

let unlock t =
  if not t.held then invalid_arg "Locks.unlock: not held";
  wake_next t

let try_lock t =
  if t.held then false
  else begin
    t.held <- true;
    true
  end

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f

let is_locked t = t.held
