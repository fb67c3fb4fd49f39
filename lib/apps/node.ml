(* Shared node representation for the overlay applications: an endpoint
   plus its position on the identifier ring, with its message type for
   RPC arguments and results. *)

module Codec = Splay_runtime.Codec

type t = { id : int; addr : Addr.t }

let make ~id ~addr = { id; addr }

let equal a b = a.id = b.id && Addr.equal a.addr b.addr

let compare_by_id a b = Int.compare a.id b.id

let to_value n =
  Codec.Assoc [ ("id", Codec.Int n.id); ("a", Codec.String (Addr.to_string n.addr)) ]

let parse v =
  let id = Codec.to_int (Codec.member "id" v) in
  match String.split_on_char ':' (Codec.to_string (Codec.member "a" v)) with
  | [ h; p ] -> (
      match (int_of_string_opt h, int_of_string_opt p) with
      | Some h, Some p -> { id; addr = Addr.make h p }
      | _ -> raise (Codec.Parse_error "bad node address"))
  | _ -> raise (Codec.Parse_error "bad node address")

(* The fast path reads the shape [to_value] writes in place. [min_int]
   stands for "not canonical": no spelling it accepts (an optional '-'
   and 1 to 18 digits) reads as [min_int]. *)
let rec digits s i j acc =
  if i = j then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s (i + 1) j ((acc * 10) + Char.code c - 48)
    | _ -> min_int

let decimal s i j =
  let neg = i < j && String.unsafe_get s i = '-' in
  let i = if neg then i + 1 else i in
  if i = j || j - i > 18 then min_int
  else
    let n = digits s i j 0 in
    if neg && n <> min_int then -n else n

let rec colon s i =
  if i = String.length s then -1 else if String.unsafe_get s i = ':' then i else colon s (i + 1)

(* Allocates the node and its address only; any other input goes through
   [parse], with its result or its [Parse_error]. *)
let of_value v =
  match v with
  | Codec.Assoc [ ("id", Codec.Int id); ("a", Codec.String s) ] ->
      let c = colon s 0 in
      let host = if c < 0 then min_int else decimal s 0 c in
      let port = if host = min_int then min_int else decimal s (c + 1) (String.length s) in
      if port = min_int then parse v else { id; addr = { Addr.host; port } }
  | _ -> parse v

(* [{"id":I,"a":"H:P"}]: the braces, the two quoted keys with their
   colons, the comma and the address's quotes and colon are 15 bytes. *)
let size n =
  15 + Addr.decimal_length n.id + Addr.decimal_length n.addr.Addr.host
  + Addr.decimal_length n.addr.Addr.port

let ty = { Codec.size; to_value; of_value }

(* Derive this instance's identity: a random ring position (as the paper's
   Chord does) or a hash of ip:port (as deployed DHTs do). *)
let self ?(how = `Hash) ~bits (env : Splay_runtime.Env.t) =
  let id =
    match how with
    | `Random -> Splay_sim.Rng.int env.Splay_runtime.Env.env_rng (Splay_runtime.Misc.pow2 bits)
    | `Hash -> Splay_runtime.Crypto.hash_to_id (Addr.to_string env.Splay_runtime.Env.me) ~bits
  in
  { id; addr = env.Splay_runtime.Env.me }
