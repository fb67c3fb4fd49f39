type 'a state = Empty of ('a -> unit) list | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
      t.state <- Full v;
      List.iter (fun w -> w v) (List.rev waiters);
      true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let is_filled t = match t.state with Full _ -> true | Empty _ -> false

let read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
      Engine.suspend_ (fun resolve ->
          match t.state with
          | Full v -> resolve (Ok v)
          | Empty ws -> t.state <- Empty ((fun v -> resolve (Ok v)) :: ws))

let read_timeout t d =
  match t.state with
  | Full v -> Some v
  | Empty _ ->
      let eng = Engine.engine () in
      Engine.suspend (fun resolve ->
          (match t.state with
          | Full v -> resolve (Ok (Some v))
          | Empty ws -> t.state <- Empty ((fun v -> resolve (Ok (Some v))) :: ws));
          let timer = Engine.schedule eng ~delay:d (fun () -> resolve (Ok None)) in
          fun () -> Engine.cancel eng timer)
