type 'a receiver = { mutable active : bool; deliver : 'a -> unit }

type 'a t = { msgs : 'a Queue.t; receivers : 'a receiver Queue.t }

let create () = { msgs = Queue.create (); receivers = Queue.create () }

let rec wake_receiver t v =
  match Queue.take_opt t.receivers with
  | None -> Queue.add v t.msgs
  | Some r -> if r.active then r.deliver v else wake_receiver t v

let send t v = wake_receiver t v

let try_recv t = Queue.take_opt t.msgs

let recv t =
  match Queue.take_opt t.msgs with
  | Some v -> v
  | None ->
      Engine.suspend (fun resolve ->
          let r = { active = true; deliver = (fun v -> resolve (Ok v)) } in
          Queue.add r t.receivers;
          (* on kill, drop out of the receiver queue so no message is
             delivered into a dead process *)
          fun () -> r.active <- false)

let recv_timeout t d =
  match Queue.take_opt t.msgs with
  | Some v -> Some v
  | None ->
      let eng = Engine.engine () in
      Engine.suspend (fun resolve ->
          let r = { active = true; deliver = (fun v -> resolve (Ok (Some v))) } in
          Queue.add r t.receivers;
          let timer =
            Engine.schedule eng ~delay:d (fun () ->
                r.active <- false;
                resolve (Ok None))
          in
          fun () ->
            r.active <- false;
            Engine.cancel eng timer)

let length t = Queue.length t.msgs
