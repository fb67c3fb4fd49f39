type host_id = int

type t = { host : host_id; port : int }

let make host port = { host; port }

let compare a b =
  let c = Int.compare a.host b.host in
  if c <> 0 then c else Int.compare a.port b.port

let equal a b = compare a b = 0

let hash a = (a.host * 65_537) + a.port

(* The length of [string_of_int n], by comparison against powers of ten:
   no division, no allocation. *)
let rec digits n p k = if k = 19 || n < p then k else digits n (p * 10) (k + 1)

let decimal_length n =
  if n >= 0 then digits n 10 1 else if n = min_int then 20 else 1 + digits (-n) 10 1

(* Write the digits of [-q] (so [q <= 0], which also covers [min_int])
   right to left, the last one at [b.[i]]. *)
let rec put_digits b i q =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (q mod 10)));
  if q <= -10 then put_digits b (i - 1) (q / 10)

let put_int b first len n =
  if n < 0 then Bytes.unsafe_set b first '-';
  put_digits b (first + len - 1) (if n < 0 then n else -n)

(* "host:port", as [Printf.sprintf "%d:%d"] renders it, with the digits
   written straight into the result: every node reference on the wire
   carries one *)
let to_string a =
  let lh = decimal_length a.host and lp = decimal_length a.port in
  let b = Bytes.create (lh + 1 + lp) in
  put_int b 0 lh a.host;
  Bytes.unsafe_set b lh ':';
  put_int b (lh + 1) lp a.port;
  Bytes.unsafe_to_string b
