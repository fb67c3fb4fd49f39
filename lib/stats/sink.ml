type t = { hdr : Hdr.t; moments : Summary.t }

let sketch () = { hdr = Hdr.create (); moments = Summary.create () }

let add t x =
  Summary.add t.moments x;
  Hdr.add t.hdr x

let count t = Summary.count t.moments
let is_empty t = count t = 0
let mean t = Summary.mean t.moments
let stddev t = Summary.stddev t.moments

let min_value t =
  if is_empty t then invalid_arg "Sink.min_value: empty" else Summary.min_value t.moments

let max_value t =
  if is_empty t then invalid_arg "Sink.max_value: empty" else Summary.max_value t.moments

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sink.quantile: q out of range";
  if is_empty t then invalid_arg "Sink.quantile: empty";
  Hdr.quantile t.hdr ~min:(Summary.min_value t.moments) ~max:(Summary.max_value t.moments) q

let merge a b =
  let hdr = Hdr.create () in
  Hdr.merge_into ~into:hdr a.hdr;
  Hdr.merge_into ~into:hdr b.hdr;
  { hdr; moments = Summary.merge a.moments b.moments }

let to_dist t =
  let d = Dist.create () in
  if not (is_empty t) then
    Hdr.iter t.hdr ~min:(Summary.min_value t.moments) ~max:(Summary.max_value t.moments)
      (fun v c ->
        for _ = 1 to c do
          Dist.add d v
        done);
  d
