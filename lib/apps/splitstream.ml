type t = {
  scribe : Scribe.t;
  stripes : int;
  topics : int array;
  blocks : (int, string) Hashtbl.t;
  mutable total : int option;
}

(* Stripe topics share the content hash in their low digits but get a
   distinct leading digit each — the interior-node-disjointness trick. *)
let stripe_topic ~bits ~b ~base i =
  let low_mask = (1 lsl (bits - b)) - 1 in
  ((i land ((1 lsl b) - 1)) lsl (bits - b)) lor (base land low_mask)

let create scribe ~stripes ~name =
  if stripes < 1 then invalid_arg "Splitstream.create";
  let base = Scribe.topic_of_name scribe name in
  (* recover digit parameters from the underlying Pastry configuration via
     the scribe topic size: topics are full-width ids *)
  let bits, b = (32, 4) in
  let topics = Array.init stripes (fun i -> stripe_topic ~bits ~b ~base i) in
  let t = { scribe; stripes; topics; blocks = Hashtbl.create 64; total = None } in
  Scribe.on_deliver scribe (fun ~topic ~payload ->
      if Array.exists (fun x -> x = topic) topics then begin
        (* payload: "<index>/<total>:<data>" *)
        match String.index_opt payload ':' with
        | None -> ()
        | Some colon -> (
            let header = String.sub payload 0 colon in
            let data = String.sub payload (colon + 1) (String.length payload - colon - 1) in
            match String.split_on_char '/' header with
            | [ idx; total ] -> (
                match (int_of_string_opt idx, int_of_string_opt total) with
                | Some idx, Some total ->
                    t.total <- Some total;
                    if not (Hashtbl.mem t.blocks idx) then Hashtbl.replace t.blocks idx data
                | _ -> ())
            | _ -> ())
      end);
  t

let subscribe_all t = Array.iter (fun topic -> Scribe.subscribe t.scribe ~topic) t.topics

let send t ~content ~block_size =
  if block_size < 1 then invalid_arg "Splitstream.send";
  let len = String.length content in
  let total = max 1 ((len + block_size - 1) / block_size) in
  for idx = 0 to total - 1 do
    let off = idx * block_size in
    let data = String.sub content off (min block_size (len - off)) in
    let payload = Printf.sprintf "%d/%d:%s" idx total data in
    Scribe.publish t.scribe ~topic:t.topics.(idx mod t.stripes) ~payload
  done

let reassembled t =
  match t.total with
  | Some n when Hashtbl.length t.blocks = n ->
      let buf = Buffer.create 1024 in
      let ok = ref true in
      for i = 0 to n - 1 do
        match Hashtbl.find_opt t.blocks i with
        | Some d -> Buffer.add_string buf d
        | None -> ok := false
      done;
      if !ok then Some (Buffer.contents buf) else None
  | _ -> None
