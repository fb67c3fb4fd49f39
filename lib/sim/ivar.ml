(* Readers park on wakers, newest first. A reader that timed out or was
   killed leaves a settled waker behind; [stale] counts them (a reader
   killed just after the fill woke it is counted too, which only brings
   a compaction forward), and once they are the majority of the list
   they are dropped, so an Ivar that is never filled holds O(readers
   still waiting), not one record per read it ever timed out. *)
type 'a t = {
  mutable value : 'a option;
  mutable waiters : 'a Engine.waker list;
  mutable n_waiters : int; (* length of [waiters] *)
  mutable stale : int;
}

let create () = { value = None; waiters = []; n_waiters = 0; stale = 0 }

let try_fill t v =
  match t.value with
  | Some _ -> false
  | None ->
      t.value <- Some v;
      let ws = t.waiters in
      t.waiters <- [];
      t.n_waiters <- 0;
      t.stale <- 0;
      List.iter (fun w -> Engine.wake w v) (List.rev ws);
      true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let is_filled t = Option.is_some t.value

let note_stale t =
  if Option.is_none t.value then begin
    t.stale <- t.stale + 1;
    if t.stale > 8 && 2 * t.stale > t.n_waiters then begin
      t.waiters <- List.filter Engine.pending t.waiters;
      t.n_waiters <- List.length t.waiters;
      t.stale <- 0
    end
  end

let park t =
  let w = Engine.waker (Engine.engine ()) in
  t.waiters <- w :: t.waiters;
  t.n_waiters <- t.n_waiters + 1;
  w

(* Any exception ends the wait (a timeout or a kill) with the waker
   still listed. *)
let await t w =
  match Engine.await w with
  | v -> v
  | exception e ->
      note_stale t;
      raise e

let read t = match t.value with Some v -> v | None -> await t (park t)

let read_timeout t d =
  match t.value with
  | Some v -> Some v
  | None -> (
      let w = park t in
      Engine.timeout w d;
      match await t w with v -> Some v | exception Engine.Timed_out -> None)
