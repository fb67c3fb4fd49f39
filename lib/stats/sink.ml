type sketch = { hdr : Hdr.t; moments : Summary.t }

type backend = Exact of Dist.t | Sketch of sketch

type t = { backend : backend }

let exact () = { backend = Exact (Dist.create ()) }

let sketch () = { backend = Sketch { hdr = Hdr.create (); moments = Summary.create () } }

let name t = match t.backend with Exact _ -> "exact" | Sketch _ -> "sketch"

let sk_add s x =
  Summary.add s.moments x;
  Hdr.add s.hdr x

let add t x =
  match t.backend with Exact d -> Dist.add d x | Sketch s -> sk_add s x

let count t =
  match t.backend with Exact d -> Dist.count d | Sketch s -> Summary.count s.moments

let is_empty t = count t = 0

let mean t =
  match t.backend with Exact d -> Dist.mean d | Sketch s -> Summary.mean s.moments

let stddev t =
  match t.backend with Exact d -> Dist.stddev d | Sketch s -> Summary.stddev s.moments

let min_value t =
  match t.backend with
  | Exact d -> Dist.min_value d
  | Sketch s ->
      if Summary.count s.moments = 0 then invalid_arg "Sink.min_value: empty"
      else Summary.min_value s.moments

let max_value t =
  match t.backend with
  | Exact d -> Dist.max_value d
  | Sketch s ->
      if Summary.count s.moments = 0 then invalid_arg "Sink.max_value: empty"
      else Summary.max_value s.moments

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sink.quantile: q out of range";
  if is_empty t then invalid_arg "Sink.quantile: empty";
  match t.backend with
  | Exact d -> Dist.percentile d (q *. 100.0)
  | Sketch s ->
      Hdr.quantile s.hdr ~min:(Summary.min_value s.moments) ~max:(Summary.max_value s.moments) q

let percentile t p = quantile t (p /. 100.0)

let percentiles t ps = List.map (percentile t) ps

let cdf_curve t ?(steps = 50) () =
  if is_empty t then []
  else
    match t.backend with
    | Exact d -> Dist.cdf_curve d ~steps ()
    | Sketch s ->
        let lo = Summary.min_value s.moments and hi = Summary.max_value s.moments in
        let span = hi -. lo in
        if span <= 0.0 then [ (lo, 1.0) ]
        else
          List.init (steps + 1) (fun i ->
              let x = lo +. (span *. Float.of_int i /. Float.of_int steps) in
              (x, Hdr.fraction_le s.hdr ~min:lo ~max:hi x))

(* An exact sink's samples absorbed into a fresh sketch. *)
let as_sketch t =
  match t.backend with
  | Sketch s -> s
  | Exact d ->
      let s = { hdr = Hdr.create (); moments = Summary.create () } in
      Array.iter (sk_add s) (Dist.values d);
      s

let merge a b =
  match (a.backend, b.backend) with
  | Exact da, Exact db -> { backend = Exact (Dist.merge da db) }
  | _ ->
      let sa = as_sketch a and sb = as_sketch b in
      let hdr = Hdr.create () in
      Hdr.merge_into ~into:hdr sa.hdr;
      Hdr.merge_into ~into:hdr sb.hdr;
      { backend = Sketch { hdr; moments = Summary.merge sa.moments sb.moments } }

let to_dist t =
  let d = Dist.create () in
  (match t.backend with
  | Exact e -> Array.iter (Dist.add d) (Dist.values e)
  | Sketch s ->
      if Summary.count s.moments > 0 then
        Hdr.iter s.hdr ~min:(Summary.min_value s.moments) ~max:(Summary.max_value s.moments)
          (fun v c ->
            for _ = 1 to c do
              Dist.add d v
            done));
  d
