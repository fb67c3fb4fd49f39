(* Deployable applications, by name. A main takes the instance
   environment plus string parameters from the deployment descriptor /
   CLI — the SAME main runs under the simulated engine and under the live
   loop, which is the paper's central claim and what the sim-vs-live
   contract test exercises. *)

type main = params:(string * string) list -> Env.t -> unit

let apps : (string, main) Hashtbl.t = Hashtbl.create 8
let register name main = Hashtbl.replace apps name main
let find name = Hashtbl.find_opt apps name

let param_int params key default =
  match List.assoc_opt key params with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default
