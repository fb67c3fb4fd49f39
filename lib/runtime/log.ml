type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type sink =
  | Discard
  | Memory of int
  | Forward of (time:float -> level:level -> node:string -> string -> unit)

type t = {
  name : string;
  eng : Splay_sim.Engine.t;
  mutable level : level;
  mutable sink : sink;
  (* created on the first retained entry: most instances never log *)
  mutable entries : (float * level * string) Queue.t option;
  mutable emitted : int;
}

let create ?(level = Info) ?(sink = Memory 10_000) ~name eng =
  { name; eng; level; sink; entries = None; emitted = 0 }

let set_level t l = t.level <- l
let set_sink t s = t.sink <- s
let enabled t l = severity l >= severity t.level

let emit t l msg =
  if enabled t l then begin
    t.emitted <- t.emitted + 1;
    let now = Splay_sim.Engine.now t.eng in
    match t.sink with
    | Discard -> ()
    | Memory cap ->
        let q =
          match t.entries with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              t.entries <- Some q;
              q
        in
        Queue.add (now, l, msg) q;
        if Queue.length q > cap then ignore (Queue.take q)
    | Forward f -> f ~time:now ~level:l ~node:t.name msg
  end

(* Check the threshold before interpreting the format: a disabled-level
   call skips the formatting work entirely (ifprintf consumes the
   arguments without rendering anything). *)
let log t l fmt = if enabled t l then Printf.ksprintf (emit t l) fmt else Printf.ifprintf () fmt
let debug t fmt = log t Debug fmt
let info t fmt = log t Info fmt
let warn t fmt = log t Warn fmt
let error t fmt = log t Error fmt

let entries t = match t.entries with Some q -> List.of_seq (Queue.to_seq q) | None -> []
let count t = t.emitted
