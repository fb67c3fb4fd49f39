type router = int

(* Stub routers are leaves by construction: every path between two
   distinct routers decomposes as  stub --(uplink)--> transit ~~> transit
   --(uplink)--> stub , so all-pairs delays reduce to a transit×transit
   distance matrix (tiny: 10×10 for the paper's 500-router graph) plus
   the two uplink weights. [delay] is then O(1) arithmetic with no
   Dijkstra re-runs and no per-query cache lookups — it sits on the
   packet-delivery hot path of every ModelNet experiment. *)
type t = {
  n : int;
  transits : int;
  stubs : router array;
  intra_stub : float;
  uplink : int array; (* router -> its transit (transits map to themselves) *)
  upweight : float array; (* router -> uplink edge weight (0 for transits) *)
  tt_dist : float array array; (* transit×transit shortest-path matrix *)
}

(* Dijkstra over the transit subgraph, on the specialized event heap:
   keys are (distance, router), so ties break deterministically on the
   lower router id and the comparisons are unboxed. *)
let dijkstra ~n adj src =
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  let heap = Splay_sim.Eheap.create ~dummy:0 in
  let key = { Splay_sim.Eheap.v = 0.0 } in
  Splay_sim.Eheap.push heap ~at:key ~seq:src src;
  let rec loop () =
    match Splay_sim.Eheap.pop heap with
    | None -> ()
    | Some u ->
        (* stale entries (u was already settled with a smaller distance)
           just re-relax against the settled value: no-ops, no re-push *)
        let du = dist.(u) in
        List.iter
          (fun (v, w) ->
            let nd = du +. w in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              key.v <- nd;
              Splay_sim.Eheap.push heap ~at:key ~seq:v v
            end)
          adj.(u);
        loop ()
  in
  loop ();
  dist

let transit_stub ?(transits = 10) ?(stubs_per_transit = 49) ?(transit_transit_rtt = 0.100)
    ?(stub_transit_rtt = 0.030) ?(intra_stub_rtt = 0.010) rng =
  if transits < 1 || stubs_per_transit < 1 then invalid_arg "Topology.transit_stub";
  let n = transits * (1 + stubs_per_transit) in
  (* transit routers are 0..transits-1, connected in a ring plus a few
     random chords for path diversity *)
  let tadj = Array.make transits [] in
  let add_edge a b d =
    tadj.(a) <- (b, d) :: tadj.(a);
    tadj.(b) <- (a, d) :: tadj.(b)
  in
  let tt = transit_transit_rtt /. 2.0 in
  for i = 0 to transits - 1 do
    add_edge i ((i + 1) mod transits) tt
  done;
  if transits > 3 then
    for _ = 1 to transits / 2 do
      let a = Splay_sim.Rng.int rng transits and b = Splay_sim.Rng.int rng transits in
      if a <> b && not (List.mem_assoc b tadj.(a)) then add_edge a b tt
    done;
  (* stub routers hang off their transit *)
  let st = stub_transit_rtt /. 2.0 in
  let uplink = Array.init n Fun.id in
  let upweight = Array.make n 0.0 in
  let stubs = Array.make (transits * stubs_per_transit) 0 in
  let idx = ref 0 in
  for tr = 0 to transits - 1 do
    for s = 0 to stubs_per_transit - 1 do
      let r = transits + (tr * stubs_per_transit) + s in
      uplink.(r) <- tr;
      upweight.(r) <- st;
      stubs.(!idx) <- r;
      incr idx
    done
  done;
  (* precompute the transit×transit matrix once; each row is one Dijkstra
     over the [transits]-node subgraph *)
  let tt_dist = Array.init transits (fun src -> dijkstra ~n:transits tadj src) in
  { n; transits; stubs; intra_stub = intra_stub_rtt /. 2.0; uplink; upweight; tt_dist }

let router_count t = t.n

let stub_routers t = Array.copy t.stubs

let random_stub t rng = t.stubs.(Splay_sim.Rng.int rng (Array.length t.stubs))

let delay_to t (cell : Splay_sim.Eheap.fcell) a b =
  cell.v <-
    (if a = b then t.intra_stub
     else t.upweight.(a) +. t.tt_dist.(t.uplink.(a)).(t.uplink.(b)) +. t.upweight.(b))

let intra_stub_delay t = t.intra_stub
