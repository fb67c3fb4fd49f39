type t = { width : float; table : (int, Dist.t) Hashtbl.t }

let create ~bin_width =
  if bin_width <= 0.0 then invalid_arg "Series.create: bin_width";
  { width = bin_width; table = Hashtbl.create 64 }

let key t time = int_of_float (Float.floor (time /. t.width))

let add t ~time x =
  let k = key t time in
  let d =
    match Hashtbl.find_opt t.table k with
    | Some d -> d
    | None ->
        let d = Dist.create () in
        Hashtbl.replace t.table k d;
        d
  in
  Dist.add d x

let bins t =
  Hashtbl.fold (fun k d acc -> (Float.of_int k *. t.width, d) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

let bin_at t time = Hashtbl.find_opt t.table (key t time)

module Counter = struct
  type nonrec t = { width : float; table : (int, int ref) Hashtbl.t }

  let create ~bin_width =
    if bin_width <= 0.0 then invalid_arg "Series.Counter.create: bin_width";
    { width = bin_width; table = Hashtbl.create 64 }

  let incr t ~time =
    let k = int_of_float (Float.floor (time /. t.width)) in
    match Hashtbl.find_opt t.table k with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.replace t.table k (ref 1)

  let get t ~time =
    let k = int_of_float (Float.floor (time /. t.width)) in
    match Hashtbl.find_opt t.table k with Some r -> !r | None -> 0

  let series t =
    Hashtbl.fold (fun k r acc -> (Float.of_int k *. t.width, !r) :: acc) t.table []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
end
