type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = [||]; size = 0; sorted = true }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let nd = Array.make (if cap = 0 then 64 else cap * 2) 0.0 in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let add_list t xs = List.iter (add t) xs

let count t = t.size
let is_empty t = t.size = 0

let ensure_sorted t =
  if not t.sorted then begin
    let a = Array.sub t.data 0 t.size in
    Array.sort Float.compare a;
    Array.blit a 0 t.data 0 t.size;
    t.sorted <- true
  end

let mean t =
  if t.size = 0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to t.size - 1 do
      s := !s +. t.data.(i)
    done;
    !s /. Float.of_int t.size
  end

let min_value t =
  if t.size = 0 then invalid_arg "Dist.min_value: empty";
  ensure_sorted t;
  t.data.(0)

let max_value t =
  if t.size = 0 then invalid_arg "Dist.max_value: empty";
  ensure_sorted t;
  t.data.(t.size - 1)

let percentile t p =
  if t.size = 0 then invalid_arg "Dist.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Dist.percentile: p out of range";
  ensure_sorted t;
  let rank = p /. 100.0 *. Float.of_int (t.size - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then t.data.(lo)
  else begin
    let frac = rank -. Float.of_int lo in
    (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
  end

let fraction_le t x =
  ensure_sorted t;
  (* binary search: number of samples <= x *)
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.data.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  Float.of_int !lo /. Float.of_int (max 1 t.size)

let cdf t ~points = List.map (fun x -> (x, fraction_le t x)) points

let histogram t ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Dist.histogram: bins";
  if hi <= lo then invalid_arg "Dist.histogram: empty range";
  let width = (hi -. lo) /. Float.of_int bins in
  let counts = Array.make bins 0 in
  for i = 0 to t.size - 1 do
    let b = int_of_float ((t.data.(i) -. lo) /. width) in
    let b = if b < 0 then 0 else if b >= bins then bins - 1 else b in
    counts.(b) <- counts.(b) + 1
  done;
  Array.mapi (fun i c -> (lo +. (Float.of_int i *. width), c)) counts

let pdf t ~bins ~lo ~hi =
  let h = histogram t ~bins ~lo ~hi in
  let total = Float.of_int (max 1 t.size) in
  Array.map (fun (x, c) -> (x, 100.0 *. Float.of_int c /. total)) h

let values t = Array.sub t.data 0 t.size

let merge a b =
  let t = create () in
  Array.iter (add t) (values a);
  Array.iter (add t) (values b);
  t
