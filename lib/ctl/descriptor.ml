module Sandbox = Splay_runtime.Sandbox

type bootstrap = Head of int | Random_subset of int | All

type t = { nb_splayd : int; bootstrap : bootstrap; limits : Sandbox.limits; loss : float }

let default = { nb_splayd = 1; bootstrap = Head 1; limits = Sandbox.unlimited; loss = 0.0 }

let make ?(bootstrap = Head 1) ?(limits = Sandbox.unlimited) ?(loss = 0.0) nb_splayd =
  if nb_splayd < 1 then invalid_arg "Descriptor.make";
  if loss < 0.0 || loss > 1.0 then invalid_arg "Descriptor.make: loss";
  { nb_splayd; bootstrap; limits; loss }

exception Syntax_error of string

let begin_marker = "BEGIN SPLAY RESOURCES RESERVATION"
let end_marker = "END SPLAY RESOURCES RESERVATION"

let find_substring hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = if i + m > n then None else if String.sub hay i m = needle then Some i else go (i + 1) in
  go 0

let parse_int key v =
  match int_of_string_opt (String.trim v) with
  | Some n -> n
  | None -> raise (Syntax_error (Printf.sprintf "%s: expected integer, got %S" key v))

let parse_line t line =
  let line = String.trim line in
  if line = "" then t
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ "nb_splayd"; n ] -> { t with nb_splayd = parse_int "nb_splayd" n }
    | [ "nodes"; "head"; k ] -> { t with bootstrap = Head (parse_int "nodes head" k) }
    | [ "nodes"; "random"; k ] -> { t with bootstrap = Random_subset (parse_int "nodes random" k) }
    | [ "nodes"; "all" ] -> { t with bootstrap = All }
    | [ "max_mem"; n ] ->
        { t with limits = { t.limits with Sandbox.max_memory = parse_int "max_mem" n } }
    | [ "max_sockets"; n ] ->
        { t with limits = { t.limits with Sandbox.max_sockets = parse_int "max_sockets" n } }
    | [ "max_fs"; n ] ->
        { t with limits = { t.limits with Sandbox.max_fs_bytes = parse_int "max_fs" n } }
    | [ "max_files"; n ] ->
        { t with limits = { t.limits with Sandbox.max_open_files = parse_int "max_files" n } }
    | [ "loss"; f ] -> (
        match float_of_string_opt (String.trim f) with
        | Some p when p >= 0.0 && p <= 1.0 -> { t with loss = p }
        | _ -> raise (Syntax_error (Printf.sprintf "loss: expected fraction, got %S" f)))
    | [ "max_send"; n ] ->
        { t with limits = { t.limits with Sandbox.max_send_bytes = parse_int "max_send" n } }
    | key :: _ -> raise (Syntax_error (Printf.sprintf "unknown reservation key %S" key))
    | [] -> t

let parse src =
  match find_substring src begin_marker with
  | None -> default
  | Some b -> (
      let after = b + String.length begin_marker in
      match find_substring (String.sub src after (String.length src - after)) end_marker with
      | None -> raise (Syntax_error "missing END SPLAY RESOURCES RESERVATION")
      | Some e ->
          let body = String.sub src after e in
          let lines = String.split_on_char '\n' body in
          let t = List.fold_left parse_line default lines in
          if t.nb_splayd < 1 then raise (Syntax_error "nb_splayd must be >= 1");
          t)
