(* Bucket layout: bucket 0 for zero/negative samples, then 8 linear
   sub-buckets per octave for binary exponents [e_min, e_max] in frexp's
   convention (v = f * 2^e, 0.5 <= f < 1). *)
let sub_buckets = 8
let e_min = -19
let e_max = 44
let n_buckets = 1 + ((e_max - e_min + 1) * sub_buckets)

(* The exact aggregates live in one flat float array: a mutable float
   field of a mixed record boxes on every store, and [add] runs once per
   simulated message when the metrics plane is on. *)
let f_sum = 0
let f_min = 1
let f_max = 2

type t = {
  mutable counts : int array; (* [||] until the first sample *)
  mutable n : int;
  f : float array; (* sum / min / max *)
}

let sketch () = { counts = [||]; n = 0; f = [| 0.0; infinity; neg_infinity |] }

(* Exactly frexp's octave and sub-bucket, read straight from the IEEE 754
   fields (no tuple allocation on the hot path): for a normal double,
   frexp's e is the raw exponent - 1022, and the linear sub-bucket — the
   first [log2 sub_buckets] bits of frexp's fraction past 0.5 — is the
   mantissa's top three bits. Subnormals read e = -1022 and clamp below
   [e_min] like frexp's would. *)
let index v =
  if v <= 0.0 then 0
  else begin
    let bits = Int64.to_int (Int64.bits_of_float v) in
    let e = ((bits lsr 52) land 0x7ff) - 1022 in
    if e < e_min then 1
    else if e > e_max then n_buckets - 1
    else 1 + ((e - e_min) * sub_buckets) + ((bits lsr 49) land 0x7)
  end

let add_count t i c =
  if Array.length t.counts = 0 then t.counts <- Array.make n_buckets 0;
  t.counts.(i) <- t.counts.(i) + c;
  t.n <- t.n + c

let add t v =
  add_count t (index v) 1;
  let f = t.f in
  f.(f_sum) <- f.(f_sum) +. v;
  if v < f.(f_min) then f.(f_min) <- v;
  if v > f.(f_max) then f.(f_max) <- v

let count t = t.n
let is_empty t = t.n = 0
let sum t = t.f.(f_sum)
let mean t = if t.n = 0 then 0.0 else t.f.(f_sum) /. Float.of_int t.n
let min_value t = if t.n = 0 then invalid_arg "Sink.min_value: empty" else t.f.(f_min)
let max_value t = if t.n = 0 then invalid_arg "Sink.max_value: empty" else t.f.(f_max)

let clear t =
  if Array.length t.counts > 0 then Array.fill t.counts 0 n_buckets 0;
  t.n <- 0;
  t.f.(f_sum) <- 0.0;
  t.f.(f_min) <- infinity;
  t.f.(f_max) <- neg_infinity

let merge_into ~into t =
  if t.n > 0 then begin
    if Array.length into.counts = 0 then into.counts <- Array.make n_buckets 0;
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
    into.n <- into.n + t.n;
    let f = into.f in
    f.(f_sum) <- f.(f_sum) +. t.f.(f_sum);
    if t.f.(f_min) < f.(f_min) then f.(f_min) <- t.f.(f_min);
    if t.f.(f_max) > f.(f_max) then f.(f_max) <- t.f.(f_max)
  end

let merge a b =
  let t = sketch () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let bounds i =
  if i = 0 then (0.0, 0.0)
  else begin
    let k = i - 1 in
    let e = (k / sub_buckets) + e_min - 4 and j = sub_buckets + (k mod sub_buckets) in
    let lo = if i = 1 then 0.0 else Float.ldexp (Float.of_int j) e in
    let hi = if i = n_buckets - 1 then infinity else Float.ldexp (Float.of_int (j + 1)) e in
    (lo, hi)
  end

let bucket x = bounds (index x)

(* A bucket's range narrowed to the observed [min, max]: the end buckets
   then report exact extremes, and bucket 0 collapses to a point. *)
let clamped t i =
  let mn = t.f.(f_min) and mx = t.f.(f_max) in
  let clamp v = if v < mn then mn else if v > mx then mx else v in
  let lo, hi = bounds i in
  (clamp lo, clamp hi)

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sink.quantile: q out of range";
  if t.n = 0 then invalid_arg "Sink.quantile: empty";
  if q = 0.0 then t.f.(f_min)
  else if q = 1.0 then t.f.(f_max)
  else begin
    let rank = q *. Float.of_int t.n in
    (* the first bucket whose cumulative count reaches [rank]; rank > 0,
       so it is never an empty one *)
    let i = ref 0 and cum = ref 0 in
    while Float.of_int (!cum + t.counts.(!i)) < rank do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    let lo, hi = clamped t !i in
    lo +. ((hi -. lo) *. (rank -. Float.of_int !cum) /. Float.of_int t.counts.(!i))
  end

let fraction_le t x =
  if t.n = 0 || x < t.f.(f_min) then 0.0
  else if x >= t.f.(f_max) then 1.0
  else begin
    let i = index x in
    let cum = ref 0 in
    for k = 0 to i - 1 do
      cum := !cum + t.counts.(k)
    done;
    let lo, hi = clamped t i in
    let c = Float.of_int t.counts.(i) in
    let part = if hi > lo then c *. (x -. lo) /. (hi -. lo) else if x >= lo then c else 0.0 in
    (Float.of_int !cum +. part) /. Float.of_int t.n
  end

let encode b t =
  let sep = ref false in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if !sep then Buffer.add_char b ',';
        sep := true;
        Buffer.add_string b (string_of_int i);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int c)
      end)
    t.counts

let decode ~n ~sum ~min ~max s =
  let t = sketch () in
  let add pair =
    match String.index_opt pair ':' with
    | None -> false
    | Some k -> (
        let num a b = int_of_string_opt (String.sub pair a b) in
        match (num 0 k, num (k + 1) (String.length pair - k - 1)) with
        | Some i, Some c when i >= 0 && i < n_buckets && c > 0 && c <= max_int - t.n ->
            add_count t i c;
            true
        | _ -> false)
  in
  if (s = "" || List.for_all add (String.split_on_char ',' s)) && t.n = n then begin
    if n > 0 then begin
      t.f.(f_sum) <- sum;
      t.f.(f_min) <- min;
      t.f.(f_max) <- max
    end;
    Some t
  end
  else None

let to_dist t =
  let d = Dist.create () in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = clamped t i in
        let v = 0.5 *. (lo +. hi) in
        for _ = 1 to c do
          Dist.add d v
        done
      end)
    t.counts;
  d
