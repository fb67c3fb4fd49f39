(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would point at a boxed Int64 (a second block per generator, and a
   fresh box plus a write barrier on every draw). The compiler reads and
   writes the buffer as an unboxed int64, so a draw allocates nothing
   until its result escapes. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix (Int64.of_int (seed lxor 0x1F2E3D4C)))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden in
  set_state t 0 s;
  mix s

let split t = of_state (mix (bits64 t))

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  (* Rejection-free modulo is fine for simulation purposes given 64 bits of
     entropy against small ranges. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int n))

let[@inline] float t x =
  (* 53 uniform mantissa bits. *)
  let u = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float u /. 9007199254740992.0 *. x

let[@inline] unit_open t =
  (* uniform in (0,1), avoiding 0 for log-based transforms *)
  let u = float t 1.0 in
  if u <= 0.0 then 1e-18 else u

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p = if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let exponential t ~mean = -.mean *. log (unit_open t)

let[@inline] normal t ~mu ~sigma =
  let u1 = unit_open t and u2 = unit_open t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* The draw is inlined down to [bits64], so it scales the cell without
   boxing a float: a float returned across a call would be boxed. *)
let scale_lognormal t (cell : Eheap.fcell) ~mu ~sigma =
  cell.v <- cell.v *. exp (normal t ~mu ~sigma)

let pareto t ~scale ~shape = scale /. (unit_open t ** (1.0 /. shape))

let weibull t ~scale ~shape = scale *. ((-.log (unit_open t)) ** (1.0 /. shape))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs
  else begin
    shuffle t a;
    Array.to_list (Array.sub a 0 k)
  end

module Zipf = struct
  type rng = t

  (* Walker/Vose alias table: rank [i+1] is drawn either directly from
     column [i] (with probability [prob.(i)]) or via its alias. Same
     two-array footprint as the materialized CDF this replaces, but a
     draw is O(1) instead of an O(log n) binary search — at n = 1M the
     CDF search walks ~20 cache-missing probes per sample, which is what
     a million-client load generator spends most of its rng time on. *)
  type t = { prob : float array; alias : int array }

  let create ~n ~s =
    if n <= 0 then invalid_arg "Zipf.create";
    let scaled = Array.init n (fun i -> 1.0 /. (Float.of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 scaled in
    let k = Float.of_int n /. total in
    for i = 0 to n - 1 do
      scaled.(i) <- scaled.(i) *. k
    done;
    let prob = Array.make n 1.0 in
    let alias = Array.init n Fun.id in
    (* worklists as arrays with explicit tops: construction order is a
       pure function of the weights, so tables (and every draw stream
       derived from them) are deterministic *)
    let small = Array.make n 0 and large = Array.make n 0 in
    let ns = ref 0 and nl = ref 0 in
    for i = 0 to n - 1 do
      if scaled.(i) < 1.0 then begin
        small.(!ns) <- i;
        incr ns
      end
      else begin
        large.(!nl) <- i;
        incr nl
      end
    done;
    while !ns > 0 && !nl > 0 do
      decr ns;
      let s_i = small.(!ns) in
      let l_i = large.(!nl - 1) in
      prob.(s_i) <- scaled.(s_i);
      alias.(s_i) <- l_i;
      scaled.(l_i) <- scaled.(l_i) -. (1.0 -. scaled.(s_i));
      if scaled.(l_i) < 1.0 then begin
        decr nl;
        small.(!ns) <- l_i;
        incr ns
      end
    done;
    (* leftovers are 1.0 up to rounding; their aliases are never taken *)
    { prob; alias }

  let draw z rng =
    let n = Array.length z.prob in
    (* one uniform draw serves both choices: integer part picks the
       column, fractional part decides column vs alias — the same single
       rng consumption per sample as the CDF version had *)
    let u = float rng (Float.of_int n) in
    let k = Int.min (n - 1) (int_of_float u) in
    if u -. Float.of_int k < z.prob.(k) then k + 1 else z.alias.(k) + 1
end
