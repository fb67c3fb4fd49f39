module Rng = Splay_sim.Rng

type kind = Planetlab | Modelnet | Cluster

type host = {
  id : Addr.host_id;
  kind : kind;
  coord : float * float;
  bw_up : float;
  bw_down : float;
  stub : Topology.router;
  mem_mb : float;
}

(* Per-host state as columns indexed by host id. The up bits and the two
   link-busy clocks hold one entry per host; the link parameters hold one
   entry per host on a record testbed and a single shared entry on a
   synthetic one, read at [id land per_host]. A synthetic host thus costs
   one byte and two unboxed floats, and no float of the send path is
   boxed on any testbed. *)
type links = {
  up : Bytes.t;
  up_busy : float array;
  down_busy : float array;
  per_host : int;
  bw_up : float array;
  bw_down : float array;
  proc_cost : float array;
}

type t = {
  t_rng : Rng.t;
  all : host array; (* the host records; empty on a synthetic testbed *)
  topo : Topology.t option;
  lat : Latency.t option;
      (* the pair-delay model this testbed routes through: Latency.matrix
         over [topo] for emulated hosts, the synthetic model for record-less
         testbeds *)
  gateway_delay : float; (* extra one-way delay crossing testbeds *)
  links : links;
  (* The service model, indexed like the shared link columns: the load
     factor that scales the processing cost (per host; empty on a
     synthetic testbed, whose multiplier never changes), the mean service
     time, the contention multiplier and the service-time stream. *)
  load : float array;
  slowness : float array;
  mult : float array;
  srng : Rng.t array;
}

(* What a record testbed is built from, one per host. *)
type spec = { desc : host; load_factor : float; slow : float; rng : Rng.t }

(* The per-message processing cost of a host for data-plane traffic:
   sub-millisecond, scaled by its load factor and contention multiplier. *)
let proc_cost_of load mult = 0.000_1 *. load *. mult

(* The matrix latency backend over this testbed's topology; [stub_of]
   reads the attachment router off the (already built) host array. *)
let matrix_lat all topo =
  Latency.matrix topo ~stub_of:(fun id -> all.(id).stub)

let of_specs t_rng ~topo ~gateway_delay specs =
  let n = Array.length specs in
  let all = Array.map (fun s -> s.desc) specs in
  let col f = Array.map f specs in
  let load = col (fun s -> s.load_factor) and mult = Array.make n 1.0 in
  {
    t_rng;
    all;
    topo;
    lat = Option.map (matrix_lat all) topo;
    gateway_delay;
    links =
      {
        up = Bytes.make n '\001';
        up_busy = Array.make n 0.0;
        down_busy = Array.make n 0.0;
        per_host = -1;
        bw_up = col (fun s -> s.desc.bw_up);
        bw_down = col (fun s -> s.desc.bw_down);
        proc_cost = Array.map2 proc_cost_of load mult;
      };
    load;
    slowness = col (fun s -> s.slow);
    mult;
    srng = col (fun s -> s.rng);
  }

let mbps x = x *. 1_000_000.0 /. 8.0

(* PlanetLab host responsiveness: a mixture calibrated against Fig. 3 —
   a fast fifth, a loaded middle, and a badly overloaded tail. *)
let draw_slowness rng =
  let u = Rng.float rng 1.0 in
  if u < 0.14 then Rng.float rng 0.10
  else if u < 0.45 then 0.2 +. Rng.float rng 0.6
  else if u < 0.75 then 0.8 +. Rng.float rng 1.4
  else 1.2 +. Rng.pareto rng ~scale:1.0 ~shape:1.15

(* The builders' draw order is part of every fixed-seed run: keep it. *)
let mk_planetlab_host rng id =
  (* coordinates spread over ~80 ms of one-way delay in each dimension:
     intercontinental paths reach ~120 ms one-way *)
  let coord = (Rng.float rng 0.080, Rng.float rng 0.080) in
  let rng' = Rng.split rng in
  let bw_down = mbps (1.0 +. Rng.float rng 9.0) in
  let bw_up = mbps (0.5 +. Rng.float rng 9.5) in
  let slow = draw_slowness rng in
  let load_factor = 1.0 +. Rng.float rng 4.0 in
  {
    desc = { id; kind = Planetlab; coord; bw_up; bw_down; stub = 0; mem_mb = 4096.0 };
    load_factor;
    slow;
    rng = rng';
  }

let mk_modelnet_host rng topo bw id =
  let rng' = Rng.split rng in
  let stub = Topology.random_stub topo rng in
  {
    desc =
      { id; kind = Modelnet; coord = (0.0, 0.0); bw_up = bw; bw_down = bw; stub; mem_mb = 2048.0 };
    load_factor = 1.0;
    slow = 0.005;
    rng = rng';
  }

let mk_cluster_host rng ~coord ~mem_mb id =
  let bw = mbps 1000.0 in
  {
    desc = { id; kind = Cluster; coord; bw_up = bw; bw_down = bw; stub = 0; mem_mb };
    load_factor = 1.0;
    slow = 0.001;
    rng = Rng.split rng;
  }

let planetlab ?(n = 450) rng =
  let t_rng = Rng.split rng in
  of_specs t_rng ~topo:None ~gateway_delay:0.0 (Array.init n (mk_planetlab_host rng))

let modelnet ?(hosts = 1100) ?bandwidth ?topology rng =
  let topo = match topology with Some t -> t | None -> Topology.transit_stub rng in
  let bw = match bandwidth with Some b -> b | None -> mbps 10.0 in
  let t_rng = Rng.split rng in
  of_specs t_rng ~topo:(Some topo) ~gateway_delay:0.0
    (Array.init hosts (mk_modelnet_host rng topo bw))

let cluster ?(n = 11) ?(mem_mb = 2048.0) rng =
  let t_rng = Rng.split rng in
  of_specs t_rng ~topo:None ~gateway_delay:0.0
    (Array.init n (mk_cluster_host rng ~coord:(0.0, 0.0) ~mem_mb))

let mixed ~planetlab:np ~modelnet:nm rng =
  let topo = Topology.transit_stub rng in
  let pl = Array.init np (mk_planetlab_host rng) in
  let mn = Array.init nm (fun i -> mk_modelnet_host rng topo (mbps 10.0) (np + i)) in
  let t_rng = Rng.split rng in
  of_specs t_rng ~topo:(Some topo) ~gateway_delay:0.020 (Array.append pl mn)

let synthetic ?latency ?(bw = mbps 10.0) ?(proc_cost = 0.000_1) ~hosts rng =
  if hosts < 1 then invalid_arg "Testbed.synthetic";
  let lat =
    match latency with
    | Some l -> l
    | None -> Latency.synthetic ~seed:(Int64.to_int (Rng.bits64 rng)) ()
  in
  let t_rng = Rng.split rng in
  {
    t_rng;
    all = [||];
    topo = None;
    lat = Some lat;
    gateway_delay = 0.0;
    links =
      {
        up = Bytes.make hosts '\001';
        up_busy = Array.make hosts 0.0;
        down_busy = Array.make hosts 0.0;
        per_host = 0;
        bw_up = [| bw |];
        bw_down = [| bw |];
        proc_cost = [| proc_cost |];
      };
    load = [||];
    slowness = [| 0.001 |];
    mult = [| 1.0 |];
    srng = [| Rng.split rng |];
  }

let has_records t = Array.length t.all > 0

let no_records fn =
  invalid_arg ("Testbed." ^ fn ^ ": synthetic testbeds keep no per-host records")

let with_extra_host t =
  if not (has_records t) then no_records "with_extra_host";
  let id = Array.length t.all in
  let spec i =
    { desc = t.all.(i); load_factor = t.load.(i); slow = t.slowness.(i); rng = t.srng.(i) }
  in
  let ctl = mk_cluster_host t.t_rng ~coord:(0.040, 0.040) ~mem_mb:16384.0 id in
  let specs = Array.append (Array.init id spec) [| ctl |] in
  (of_specs t.t_rng ~topo:t.topo ~gateway_delay:t.gateway_delay specs, id)

let size t = Bytes.length t.links.up
let host t id = if has_records t then t.all.(id) else no_records "host"
let rng t = t.t_rng
let links t = t.links
let host_up t id = Bytes.get t.links.up id <> '\000'
let set_host_up t id up = Bytes.set t.links.up id (if up then '\001' else '\000')

let[@inline] euclid (x1, y1) (x2, y2) =
  let dx = x1 -. x2 and dy = y1 -. y2 in
  sqrt ((dx *. dx) +. (dy *. dy))

(* The delay functions write into the caller's cell: a float returned
   across a call would be boxed. *)

let base_delay_to_h t (cell : Splay_sim.Eheap.fcell) ha hb =
  if ha.id = hb.id then cell.v <- 0.000_05
  else begin
    match (ha.kind, hb.kind) with
    | Planetlab, Planetlab -> cell.v <- 0.005 +. euclid ha.coord hb.coord
    | Modelnet, Modelnet -> (
        (* through the Latency signature: the matrix backend over this
           testbed's topology, whose primitive is Topology.delay_to, so the
           floats are that call's and fixed-seed traces do not move *)
        match t.lat with
        | Some lat -> Latency.delay_to lat cell ha.id hb.id
        | None -> cell.v <- 0.015)
    | Cluster, Cluster -> cell.v <- 0.000_05
    | Planetlab, Modelnet | Modelnet, Planetlab -> (
        (* cross the WAN gateway of the emulated site *)
        let pl, _mn = if ha.kind = Planetlab then (ha, hb) else (hb, ha) in
        let edge = 0.005 +. euclid pl.coord (0.040, 0.040) in
        match t.topo with
        | Some topo -> cell.v <- edge +. t.gateway_delay +. Topology.intra_stub_delay topo
        | None -> cell.v <- edge +. t.gateway_delay)
    | Cluster, Planetlab | Planetlab, Cluster ->
        (* controller / cluster machines sit at the virtual centre *)
        let pl = if ha.kind = Planetlab then ha else hb in
        cell.v <- 0.005 +. euclid pl.coord (0.040, 0.040)
    | Cluster, Modelnet | Modelnet, Cluster -> cell.v <- 0.002
  end

let base_delay_to t cell a b =
  match t.lat with
  | Some lat when not (has_records t) -> Latency.delay_to lat cell a b
  | _ -> base_delay_to_h t cell t.all.(a) t.all.(b)

let base_delay t a b =
  let cell = { Splay_sim.Eheap.v = 0.0 } in
  base_delay_to t cell a b;
  cell.v

let delay_to t cell a b =
  match t.lat with
  | Some lat when not (has_records t) -> Latency.delay_to lat cell a b
  | _ ->
      let ha = t.all.(a) and hb = t.all.(b) in
      base_delay_to_h t cell ha hb;
      if ha.kind = Planetlab || hb.kind = Planetlab then
        (* wide-area jitter: median ~5% of base, occasional 2-3x spikes *)
        Rng.scale_lognormal t.t_rng cell ~mu:0.0 ~sigma:0.25

let service_delay t id =
  let i = id land t.links.per_host in
  Rng.exponential t.srng.(i) ~mean:(t.slowness.(i) *. t.mult.(i))

let service_mult t id = t.mult.(id land t.links.per_host)

let set_service_mult t id m =
  if not (has_records t) then no_records "set_service_mult";
  t.mult.(id) <- m;
  t.links.proc_cost.(id) <- proc_cost_of t.load.(id) m
