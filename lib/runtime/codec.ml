type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Assoc of (string * value) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else begin
    let s = Printf.sprintf "%.17g" f in
    (* keep the token recognizable as a float (large integral values print
       bare under %g, which would decode back as Int) *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then s
    else s ^ ".0"
  end

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        vs;
      Buffer.add_char b ']'
  | Assoc kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

let encode v =
  let b = Buffer.create 64 in
  write b v;
  Buffer.contents b

(* Size by structural recursion, mirroring [write] production by
   production — no intermediate string. RPC sizes every request and reply
   (the network model charges by the byte), so this runs on the message
   hot path; the old [String.length (encode v)] built and threw away the
   full encoding each time. [Float] still formats: its repr length
   (%.1f / %.17g with a shortest-round-trip tail) is not worth
   reimplementing, and floats are rare in RPC payloads. *)

(* A loop over an index, not [String.iter] with a counter ref: sizing
   runs on every request and reply, and this way allocates nothing. *)
let rec escaped_from s i n =
  if i = String.length s then n
  else
    escaped_from s (i + 1)
      (n
      +
      match String.unsafe_get s i with
      | '"' | '\\' | '\n' | '\r' | '\t' -> 2
      | c when Char.code c < 0x20 -> 6 (* \uXXXX *)
      | _ -> 1)

let escaped_length s = escaped_from s 0 2 (* quotes *)

let rec encoded_size = function
  | Null -> 4
  | Bool true -> 4
  | Bool false -> 5
  | Int i -> Addr.decimal_length i (* string_of_int's length, by comparison *)
  | Float f -> String.length (float_repr f)
  | String s -> escaped_length s
  | List vs ->
      List.fold_left (fun acc v -> acc + 1 + encoded_size v) 1 vs
      + if vs == [] then 1 else 0
  | Assoc kvs ->
      List.fold_left (fun acc (k, v) -> acc + 1 + escaped_length k + 1 + encoded_size v) 1 kvs
      + if kvs == [] then 1 else 0

(* {2 Parser} *)

type parser_state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail "expected '%c' at %d, found '%c'" c st.pos d
  | None -> fail "expected '%c' at %d, found end of input" c st.pos

let parse_literal st lit v =
  let n = String.length lit in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = lit then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at %d" st.pos

let parse_string_body st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents b
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char b '"'; loop ()
        | Some '\\' -> advance st; Buffer.add_char b '\\'; loop ()
        | Some 'n' -> advance st; Buffer.add_char b '\n'; loop ()
        | Some 'r' -> advance st; Buffer.add_char b '\r'; loop ()
        | Some 't' -> advance st; Buffer.add_char b '\t'; loop ()
        | Some '/' -> advance st; Buffer.add_char b '/'; loop ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            let code = int_of_string ("0x" ^ hex) in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else begin
              (* 2-byte UTF-8 is enough for the control-range escapes we emit *)
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | _ -> fail "bad escape at %d" st.pos)
    | Some c ->
        advance st;
        Buffer.add_char b c;
        loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec loop () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        loop ()
    | _ -> ()
  in
  loop ();
  let s = String.sub st.src start (st.pos - start) in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then
    match float_of_string_opt s with Some f -> Float f | None -> fail "bad number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with Some f -> Float f | None -> fail "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' -> String (parse_string_body st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at %d" st.pos
        in
        List (items [])
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Assoc []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}' at %d" st.pos
        in
        Assoc (fields [])
      end
  | Some ('0' .. '9' | '-') -> parse_number st
  | Some c -> fail "unexpected '%c' at %d" c st.pos

let decode s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at %d" st.pos;
  v

(* {2 Framing} *)

let frame payload = Printf.sprintf "%d\n%s" (String.length payload) payload

let unframe buf ~pos =
  match String.index_from_opt buf pos '\n' with
  | None -> None
  | Some nl -> (
      let header = String.sub buf pos (nl - pos) in
      match int_of_string_opt header with
      | None -> fail "corrupt frame header %S" header
      | Some len ->
          if len < 0 then fail "negative frame length"
          else if nl + 1 + len > String.length buf then None
          else Some (String.sub buf (nl + 1) len, nl + 1 + len))

(* {2 Accessors} *)

let to_int = function Int i -> i | v -> fail "expected int, got %s" (encode v)

let to_float = function
  | Float f -> f
  | Int i -> Float.of_int i
  | v -> fail "expected number, got %s" (encode v)

let to_string = function String s -> s | v -> fail "expected string, got %s" (encode v)
let to_bool = function Bool b -> b | v -> fail "expected bool, got %s" (encode v)
let to_list = function List l -> l | v -> fail "expected list, got %s" (encode v)

let member k = function
  | Assoc kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> fail "missing field %S" k)
  | v -> fail "expected object with field %S, got %s" k (encode v)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Assoc x, Assoc y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | _ -> false

(* {2 Message types} *)

type 'a ty = { size : 'a -> int; to_value : 'a -> value; of_value : value -> 'a }

let value = { size = encoded_size; to_value = Fun.id; of_value = Fun.id }

let int = { size = Addr.decimal_length; to_value = (fun i -> Int i); of_value = to_int }

let string = { size = escaped_length; to_value = (fun s -> String s); of_value = to_string }

let bool =
  { size = (fun b -> if b then 4 else 5); to_value = (fun b -> Bool b); of_value = to_bool }

let unit =
  {
    size = (fun () -> 4);
    to_value = (fun () -> Null);
    of_value = (function Null -> () | v -> fail "expected null, got %s" (encode v));
  }

let option t =
  {
    size = (function None -> 4 | Some x -> t.size x);
    to_value = (function None -> Null | Some x -> t.to_value x);
    of_value = (function Null -> None | v -> Some (t.of_value v));
  }

(* [encoded_size]'s [List] production over the elements' own sizes. *)
let rec elements_size t acc = function
  | [] -> acc
  | x :: rest -> elements_size t (acc + 1 + t.size x) rest

let list t =
  {
    size = (function [] -> 2 | l -> elements_size t 1 l);
    to_value = (fun l -> List (List.map t.to_value l));
    of_value = (fun v -> List.map t.of_value (to_list v));
  }

let record2 k1 t1 k2 t2 =
  (* the braces, the two quoted keys, their colons and the comma *)
  let frame = 5 + escaped_length k1 + escaped_length k2 in
  {
    size = (fun (a, b) -> frame + t1.size a + t2.size b);
    to_value = (fun (a, b) -> Assoc [ (k1, t1.to_value a); (k2, t2.to_value b) ]);
    of_value =
      (function
      | Assoc [ (j1, v1); (j2, v2) ] when String.equal j1 k1 && String.equal j2 k2 ->
          (t1.of_value v1, t2.of_value v2)
      | v -> (t1.of_value (member k1 v), t2.of_value (member k2 v)));
  }
