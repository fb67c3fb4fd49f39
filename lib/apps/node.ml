(* Shared node representation for the overlay applications: an endpoint
   plus its position on the identifier ring, with the wire encoding used in
   RPC arguments. *)

module Codec = Splay_runtime.Codec

type t = { id : int; addr : Addr.t }

let make ~id ~addr = { id; addr }

let equal a b = a.id = b.id && Addr.equal a.addr b.addr

let compare_by_id a b = Int.compare a.id b.id

let to_value n =
  Codec.Assoc [ ("id", Codec.Int n.id); ("a", Codec.String (Addr.to_string n.addr)) ]

let of_value v =
  let id = Codec.to_int (Codec.member "id" v) in
  match String.split_on_char ':' (Codec.to_string (Codec.member "a" v)) with
  | [ h; p ] -> (
      match (int_of_string_opt h, int_of_string_opt p) with
      | Some h, Some p -> { id; addr = Addr.make h p }
      | _ -> raise (Codec.Parse_error "bad node address"))
  | _ -> raise (Codec.Parse_error "bad node address")

let opt_to_value = function None -> Codec.Null | Some n -> to_value n

let opt_of_value = function Codec.Null -> None | v -> Some (of_value v)

(* Derive this instance's identity: a random ring position (as the paper's
   Chord does) or a hash of ip:port (as deployed DHTs do). *)
let self ?(how = `Hash) ~bits (env : Splay_runtime.Env.t) =
  let id =
    match how with
    | `Random -> Splay_sim.Rng.int env.Splay_runtime.Env.env_rng (Splay_runtime.Misc.pow2 bits)
    | `Hash -> Splay_runtime.Crypto.hash_to_id (Addr.to_string env.Splay_runtime.Env.me) ~bits
  in
  { id; addr = env.Splay_runtime.Env.me }
