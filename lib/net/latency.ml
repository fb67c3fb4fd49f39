type rtt_dist =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Lognormal of { median : float; sigma : float }
  | Classes of (float * float) array

(* Dispatch on a small variant rather than a closure: the synthetic model
   sits on the packet-delivery hot path and the variant keeps its
   parameters inline (no captured environment to chase). *)
type impl =
  | Synthetic of { seed64 : int64; dist : rtt_dist; intra_host : float }
  | Matrix of { topo : Topology.t; stub_of : Addr.host_id -> Topology.router }
  | Fn of { fn : Addr.host_id -> Addr.host_id -> float; fn_min_rtt : float option }

type t = { name : string; seed : int; impl : impl }

let name t = t.name
let seed t = t.seed

(* splitmix64 finalizer (Steele et al.): a bijective avalanche mix. The
   per-pair draw is [mix (seed64 + gamma * pair_key)] — the same stream
   construction Rng uses, but stateless: the pair key addresses directly
   into the sequence, so no generator state is kept per pair. The draw
   runs once per delivered message, so it is inlined down to unboxed
   arithmetic: as calls, the int64 and float steps would box ~28 words
   per message. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let gamma = 0x9e3779b97f4a7c15L

(* Uniform draw in [0,1) from the pair hash: top 53 bits, as Rng.float. *)
let[@inline] pair_u seed64 a b =
  let lo = if a < b then a else b and hi = if a < b then b else a in
  (* host ids stay far below 2^31 even at million-host scale, so the pair
     packs injectively into one 62-bit key *)
  let key = Int64.of_int ((lo lsl 31) lor hi) in
  let bits = mix64 (Int64.add seed64 (Int64.mul gamma key)) in
  Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1.0p-53

(* Inverse standard-normal CDF, Acklam's rational approximation (~1e-9
   relative error) — turns the single per-pair uniform draw into a normal
   one without needing a second hash for Box-Muller. *)
let inv_normal_cdf p =
  let tail_num q =
    ((((((-7.784894002430293e-03 *. q) -. 3.223964580411365e-01) *. q -. 2.400758277161838e+00)
       *. q
      -. 2.549732539343734e+00)
      *. q
     +. 4.374664141464968e+00)
     *. q)
    +. 2.938163982698783e+00
  and tail_den q =
    ((((7.784695709041462e-03 *. q +. 3.224671290700398e-01) *. q +. 2.445134137142996e+00) *. q
     +. 3.754408661907416e+00)
     *. q)
    +. 1.0
  in
  let p_low = 0.02425 in
  if p <= 0.0 then neg_infinity
  else if p >= 1.0 then infinity
  else if p < p_low then begin
    let q = sqrt (-2.0 *. log p) in
    tail_num q /. tail_den q
  end
  else if p <= 1.0 -. p_low then begin
    let q = p -. 0.5 in
    let r = q *. q in
    let num =
      ((((((-3.969683028665376e+01 *. r) +. 2.209460984245205e+02) *. r -. 2.759285104469687e+02)
         *. r
        +. 1.383577518672690e+02)
        *. r
       -. 3.066479806614716e+01)
       *. r)
      +. 2.506628277459239e+00
    and den =
      (((((-5.447609879822406e+01 *. r +. 1.615858368580409e+02) *. r -. 1.556989798598866e+02)
         *. r
        +. 6.680131188771972e+01)
        *. r
       -. 1.328068155288572e+01)
       *. r)
      +. 1.0
    in
    num *. q /. den
  end
  else begin
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.(tail_num q /. tail_den q)
  end

(* Quantile function of the configured RTT distribution: u in [0,1) to a
   round-trip time in seconds. *)
let[@inline] rtt_of_u dist u =
  match dist with
  | Constant rtt -> rtt
  | Uniform { lo; hi } -> lo +. ((hi -. lo) *. u)
  | Lognormal { median; sigma } -> median *. exp (sigma *. inv_normal_cdf u)
  | Classes classes ->
      (* loops over local float refs (kept unboxed), summing in array
         order: the same additions, so the same bits, as a fold *)
      let n = Array.length classes in
      let total = ref 0.0 in
      for i = 0 to n - 1 do
        total := !total +. fst classes.(i)
      done;
      let target = u *. !total in
      (* the first class whose cumulative weight exceeds the target; the
         last class takes the rest *)
      let acc = ref 0.0 and i = ref 0 and found = ref (n - 1) in
      while !i < n - 1 do
        acc := !acc +. fst classes.(!i);
        if target < !acc then begin
          found := !i;
          i := n
        end
        else incr i
      done;
      snd classes.(!found)

let transit_stub_classes =
  (* same-stub / stub-stub / transit-crossing mix, weighted roughly as a
     uniform host placement over the paper's 10x49 graph lands *)
  Classes [| (0.02, 0.010); (0.58, 0.030); (0.40, 0.100) |]

let validate_dist = function
  | Constant rtt -> if rtt < 0.0 then invalid_arg "Latency.synthetic: negative RTT"
  | Uniform { lo; hi } ->
      if lo < 0.0 || hi < lo then invalid_arg "Latency.synthetic: bad Uniform bounds"
  | Lognormal { median; sigma } ->
      if median <= 0.0 || sigma < 0.0 then invalid_arg "Latency.synthetic: bad Lognormal"
  | Classes classes ->
      if Array.length classes = 0 then invalid_arg "Latency.synthetic: empty Classes";
      Array.iter
        (fun (w, rtt) ->
          if w < 0.0 || rtt < 0.0 then invalid_arg "Latency.synthetic: bad Classes entry")
        classes;
      if Array.for_all (fun (w, _) -> w = 0.0) classes then
        invalid_arg "Latency.synthetic: all-zero Classes weights"

let synthetic ?(dist = transit_stub_classes) ?(intra_host = 0.000_05) ~seed () =
  validate_dist dist;
  { name = "synthetic"; seed; impl = Synthetic { seed64 = Int64.of_int seed; dist; intra_host } }

let matrix topo ~stub_of = { name = "matrix"; seed = 0; impl = Matrix { topo; stub_of } }

let of_fn ~name ?(seed = 0) ?min_rtt f =
  (match min_rtt with
  | Some r when r <= 0.0 -> invalid_arg "Latency.of_fn: min_rtt must be positive"
  | _ -> ());
  { name; seed; impl = Fn { fn = f; fn_min_rtt = min_rtt } }

let delay_to t (cell : Splay_sim.Eheap.fcell) a b =
  match t.impl with
  | Synthetic { seed64; dist; intra_host } ->
      cell.v <- (if a = b then intra_host else 0.5 *. rtt_of_u dist (pair_u seed64 a b))
  | Matrix { topo; stub_of } -> Topology.delay_to topo cell (stub_of a) (stub_of b)
  | Fn { fn; _ } -> cell.v <- fn a b

(* {2 Lookahead} *)

(* Hard lower bound on the RTT the distribution can emit between two
   DISTINCT hosts ([intra_host] is excluded on purpose: a host never
   crosses a partition boundary to talk to itself). Lognormal has no
   positive bound — its quantile goes to 0 with u — so it yields [None]
   and cannot drive the conservative parallel engine. *)
let dist_min_rtt = function
  | Constant rtt -> Some rtt
  | Uniform { lo; _ } -> Some lo
  | Lognormal _ -> None
  | Classes classes ->
      (* zero-weight classes are unreachable: [pick] returns class [i]
         only when the cumulative weight strictly exceeds the target,
         and the last class only when target >= the preceding sum *)
      let m = ref infinity in
      Array.iter (fun (w, rtt) -> if w > 0.0 && rtt < !m then m := rtt) classes;
      if !m = infinity then None else Some !m

let min_rtt t =
  match t.impl with
  | Synthetic { dist; _ } -> dist_min_rtt dist
  | Matrix { topo; _ } ->
      (* Two distinct hosts can share a stub router, so the intra-stub
         hop is always reachable; the scan catches topologies where some
         router pair is even cheaper. Router counts are small (hundreds),
         and this runs once at partitioning time, not on the hot path. *)
      let cell = { Splay_sim.Eheap.v = 0.0 } in
      let n = Topology.router_count topo in
      let m = ref (Topology.intra_stub_delay topo) in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          Topology.delay_to topo cell a b;
          if cell.v < !m then m := cell.v
        done
      done;
      if !m <= 0.0 then None else Some (2.0 *. !m)
  | Fn { fn_min_rtt; _ } -> fn_min_rtt

let lookahead t = Option.map (fun rtt -> 0.5 *. rtt) (min_rtt t)
