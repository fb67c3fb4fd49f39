type host_id = int

type t = { host : host_id; port : int }

let make host port = { host; port }

let compare a b =
  let c = Int.compare a.host b.host in
  if c <> 0 then c else Int.compare a.port b.port

let equal a b = compare a b = 0

let hash a = (a.host * 65_537) + a.port

(* "host:port", as [Printf.sprintf "%d:%d"] renders it, without the
   format interpreter: every instance names its logger with it *)
let to_string a =
  let h = string_of_int a.host and p = string_of_int a.port in
  let lh = String.length h and lp = String.length p in
  let b = Bytes.create (lh + 1 + lp) in
  Bytes.blit_string h 0 b 0 lh;
  Bytes.set b lh ':';
  Bytes.blit_string p 0 b (lh + 1) lp;
  Bytes.unsafe_to_string b

