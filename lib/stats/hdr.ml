(* Bucket layout: bucket 0 for zero/negative samples, then 8 linear
   sub-buckets per octave for binary exponents [e_min, e_max] in frexp's
   convention (v = f * 2^e, 0.5 <= f < 1). *)
let sub_buckets = 8
let e_min = -19
let e_max = 44
let n_buckets = 1 + ((e_max - e_min + 1) * sub_buckets)

type t = {
  mutable counts : int array; (* [||] until the first sample *)
  mutable n : int;
}

let create () = { counts = [||]; n = 0 }

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

let add_index t i =
  if Array.length t.counts = 0 then t.counts <- Array.make n_buckets 0;
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let add t v = add_index t (index v)
let count t = t.n

let clear t =
  if Array.length t.counts > 0 then Array.fill t.counts 0 n_buckets 0;
  t.n <- 0

let merge_into ~into t =
  if t.n > 0 then begin
    if Array.length into.counts = 0 then into.counts <- Array.make n_buckets 0;
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
    into.n <- into.n + t.n
  end

let bounds i =
  if i = 0 then (0.0, 0.0)
  else begin
    let k = i - 1 in
    let e = (k / sub_buckets) + e_min - 4 and j = sub_buckets + (k mod sub_buckets) in
    let lo = if i = 1 then 0.0 else Float.ldexp (Float.of_int j) e in
    let hi = if i = n_buckets - 1 then infinity else Float.ldexp (Float.of_int (j + 1)) e in
    (lo, hi)
  end

(* A bucket's range narrowed to the observed [min, max]: the end buckets
   then report exact extremes, and bucket 0 collapses to a point. *)
let clamped ~min ~max i =
  let clamp v = if v < min then min else if v > max then max else v in
  let lo, hi = bounds i in
  (clamp lo, clamp hi)

let quantile t ~min ~max q =
  if t.n = 0 then 0.0
  else if q <= 0.0 then min
  else if q >= 1.0 then max
  else begin
    let rank = q *. Float.of_int t.n in
    (* the first bucket whose cumulative count reaches [rank]; rank > 0,
       so it is never an empty one *)
    let i = ref 0 and cum = ref 0 in
    while Float.of_int (!cum + t.counts.(!i)) < rank do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    let lo, hi = clamped ~min ~max !i in
    lo +. ((hi -. lo) *. (rank -. Float.of_int !cum) /. Float.of_int t.counts.(!i))
  end

let fraction_le t ~min ~max x =
  if t.n = 0 || x < min then 0.0
  else if x >= max then 1.0
  else begin
    let i = index x in
    let cum = ref 0 in
    for k = 0 to i - 1 do
      cum := !cum + t.counts.(k)
    done;
    let lo, hi = clamped ~min ~max i in
    let c = Float.of_int t.counts.(i) in
    let part = if hi > lo then c *. (x -. lo) /. (hi -. lo) else if x >= lo then c else 0.0 in
    (Float.of_int !cum +. part) /. Float.of_int t.n
  end

let iter t ~min ~max f =
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = clamped ~min ~max i in
        f (0.5 *. (lo +. hi)) c
      end)
    t.counts
