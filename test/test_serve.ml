(* Tests for the open-loop serving stack: the virtual-client load
   generator (partition splitting, O(1) words per idle client), the
   one-step harness (accounting identities, drain, stale-freshness), the
   serving optimizations (batching / p2c / admission actually move the
   needle past the knee), and the determinism pins the acceptance
   criteria require: byte-identical result lines across Pool --jobs and
   across parallel-engine worker-domain counts. *)

module Dpool = Splay_sim.Dpool
module Pool = Splay_sim.Pool
module Load = Splay_serve.Load
module Harness = Splay_serve.Harness

(* {2 Client spans} *)

let test_client_span () =
  (* the partitions' client ledgers split [0, clients) exactly:
     contiguous, disjoint, total, and even to within one client — also
     when some partition owns no client at all *)
  let p = Splay_ctl.Platform.create ~seed:1 (Splay_ctl.Platform.Cluster 1) in
  let gateways = [| Splay_ctl.Controller.env (Splay_ctl.Platform.controller p) |] in
  List.iter
    (fun (clients, parts) ->
      let cursor = ref 0 and lens = ref [] in
      for part = 0 to parts - 1 do
        let st =
          Load.run { Load.default with Load.clients; duration = 0.0 } ~seed:1 ~part ~parts
            ~gateways ~issue:(fun _ _ -> `Ok)
        in
        let len = st.Load.local_clients in
        Alcotest.(check int) "contiguous" !cursor st.Load.first_client;
        cursor := !cursor + len;
        lens := len :: !lens
      done;
      Alcotest.(check int) "covers all clients" clients !cursor;
      Alcotest.(check bool) "even" true
        (List.fold_left max 0 !lens - List.fold_left min max_int !lens <= 1))
    [ (10, 3); (1_000_000, 7); (5, 8); (0, 4); (16, 4) ]

(* {2 A small scenario the remaining tests share} *)

let small =
  {
    Harness.default with
    Harness.nodes = 60;
    gateways = 12;
    serve_cost = 0.004;
    load =
      {
        Load.default with
        Load.clients = 5_000;
        keys = 200;
        duration = 20.0;
        inflight = 8;
      };
  }

(* {2 Accounting identities and freshness} *)

let test_harness_accounting () =
  let r = Harness.run small ~seed:7 ~rate:400.0 in
  Alcotest.(check bool) "arrivals happened" true (r.Harness.offered > 1_000);
  Alcotest.(check int) "every arrival accounted"
    r.Harness.offered
    (r.Harness.ok + r.Harness.misses + r.Harness.shed + r.Harness.failed);
  Alcotest.(check int) "no failures in a healthy ring" 0 r.Harness.failed;
  Alcotest.(check bool) "latencies positive" true (r.Harness.p50 > 0.0);
  Alcotest.(check bool) "quantiles ordered" true
    (r.Harness.p50 <= r.Harness.p99 && r.Harness.p99 <= r.Harness.p999);
  Alcotest.(check bool) "gets mostly hit the preloaded keys" true
    (r.Harness.ok > r.Harness.offered / 2);
  Alcotest.(check int) "no stale serves" 0 r.Harness.stale

let test_harness_web_target () =
  let web = { small with Harness.target = Harness.Web } in
  let off = Harness.run web ~seed:9 ~rate:300.0 in
  let on = Harness.run { web with Harness.batching = true } ~seed:9 ~rate:300.0 in
  List.iter
    (fun r ->
      Alcotest.(check bool) "arrivals happened" true (r.Harness.offered > 500);
      Alcotest.(check int) "every arrival accounted"
        r.Harness.offered
        (r.Harness.ok + r.Harness.misses + r.Harness.shed + r.Harness.failed);
      Alcotest.(check int) "no stale-beyond-TTL serves" 0 r.Harness.stale;
      Alcotest.(check bool) "origin reached" true (r.Harness.origin > 0))
    [ off; on ];
  (* same arrival schedule: singleflight absorbs the concurrent misses on
     a hot url into its leader's fetch instead of repeating it *)
  Alcotest.(check bool)
    (Printf.sprintf "coalescing saves origin fetches (%d vs %d)" on.Harness.origin
       off.Harness.origin)
    true
    (on.Harness.origin < off.Harness.origin);
  Alcotest.(check int) "without coalescing every miss fetches" 0 off.Harness.batched;
  Alcotest.(check bool) "coalesced waiters counted" true (on.Harness.batched > 0)

(* {2 Bounded generator footprint: O(1) words per idle client} *)

let test_client_words_bounded () =
  let s =
    {
      small with
      Harness.load =
        { small.Harness.load with Load.clients = 200_000; duration = 2.0 };
    }
  in
  let forced () = (Gc.quick_stat ()).Gc.forced_major_collections in
  let forced0 = forced () in
  let r = Harness.run s ~seed:11 ~rate:200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "words per idle client bounded (got %.2f)" r.Harness.client_words)
    true
    (r.Harness.client_words < 8.0);
  (* the figure is counted by reachability: a forced major collection
     would leave the automatic major GC idle for the rest of the run *)
  Alcotest.(check int) "no forced major collection" 0 (forced () - forced0)

(* {2 The optimizations move the needle} *)

(* Past the knee: 60 nodes at 4ms/service sustain ~15k req/s ring-wide,
   but Zipf s=1.0 over 200 keys concentrates ~17% of arrivals on the
   hottest key, so 3k req/s saturates its primary owner. The overload
   scenario widens the per-gateway in-flight pool so the generator stays
   open-loop and the owners — not the client pool — are the bottleneck. *)
let overload_rate = 3_000.0

let over =
  { small with Harness.load = { small.Harness.load with Load.inflight = 64 } }

let test_batching_coalesces () =
  let r0 = Harness.run over ~seed:21 ~rate:overload_rate in
  let rb = Harness.run { over with Harness.batching = true } ~seed:21 ~rate:overload_rate in
  Alcotest.(check int) "baseline never batches" 0 r0.Harness.batched;
  Alcotest.(check bool) "batching absorbs hot-key waiters" true (rb.Harness.batched > 0);
  Alcotest.(check bool)
    (Printf.sprintf "batching lowers p99 past the knee (%.3f vs %.3f)" rb.Harness.p99
       r0.Harness.p99)
    true
    (rb.Harness.p99 < r0.Harness.p99)

let test_admission_sheds_and_bounds_tail () =
  let r0 = Harness.run over ~seed:23 ~rate:overload_rate in
  let ra = Harness.run { over with Harness.admission = true } ~seed:23 ~rate:overload_rate in
  Alcotest.(check int) "baseline never sheds" 0 r0.Harness.server_shed;
  Alcotest.(check bool) "admission sheds under overload" true (ra.Harness.server_shed > 0);
  Alcotest.(check int) "sheds are not failures" 0 ra.Harness.failed;
  Alcotest.(check bool)
    (Printf.sprintf "admission bounds the tail (%.3f vs %.3f)" ra.Harness.p99 r0.Harness.p99)
    true
    (ra.Harness.p99 < r0.Harness.p99)

let test_all_on_beats_baseline () =
  let r0 = Harness.run over ~seed:25 ~rate:overload_rate in
  let ra = Harness.run (Harness.all_on over) ~seed:25 ~rate:overload_rate in
  Alcotest.(check bool)
    (Printf.sprintf "all-on beats baseline p99 past the knee (%.3f vs %.3f)" ra.Harness.p99
       r0.Harness.p99)
    true
    (ra.Harness.p99 < r0.Harness.p99)

let test_p2c_runs_clean () =
  (* p2c is a read-path routing change: correctness must be unaffected *)
  let r0 = Harness.run small ~seed:27 ~rate:400.0 in
  let rp = Harness.run { small with Harness.p2c = true } ~seed:27 ~rate:400.0 in
  Alcotest.(check int) "no failures with p2c" 0 rp.Harness.failed;
  Alcotest.(check int) "same arrivals (same schedule)" r0.Harness.offered rp.Harness.offered;
  Alcotest.(check bool) "hit rate preserved" true
    (abs (rp.Harness.ok - r0.Harness.ok) < r0.Harness.offered / 20)

(* Off the knee: uniform keys at light load leave every owner idle, so
   no optimization has anything to win — and none may cost latency
   either. Each toggle, on the same seed and arrival schedule, must hold
   p50 within 10% of the baseline's (a p2c that routes both of its
   candidates before fetching doubles the median here). *)
let test_off_knee_guard () =
  let uniform =
    {
      Harness.default with
      Harness.nodes = 2_000;
      load = { Harness.default.Harness.load with Load.keys = 1_000; zipf_s = 0.0; duration = 10.0 };
    }
  in
  let p50 s = (Harness.run s ~seed:3 ~rate:500.0).Harness.p50 in
  let base = p50 uniform in
  List.iter
    (fun (name, s) ->
      let p = p50 s in
      Alcotest.(check bool)
        (Printf.sprintf "%s p50 %.3f s <= 1.1x baseline %.3f s" name p base)
        true
        (p <= 1.1 *. base))
    [
      ("batching", { uniform with Harness.batching = true });
      ("p2c", { uniform with Harness.p2c = true });
      ("admission", { uniform with Harness.admission = true });
      ("all_on", Harness.all_on uniform);
    ]

(* {2 Determinism pins} *)

(* Same (seed, scenario, rate) → the same bytes, run after run. *)
let test_seq_repeatable () =
  let a = Harness.to_line (Harness.run small ~seed:31 ~rate:400.0) in
  let b = Harness.to_line (Harness.run small ~seed:31 ~rate:400.0) in
  Alcotest.(check string) "sequential rerun byte-identical" a b

(* Pool fan-out over offered-load steps: --jobs must not change a byte.
   set_cap forces real worker domains even on a single-core CI box. *)
let test_pool_jobs_identical () =
  let rates = [ 200.0; 400.0; 800.0 ] in
  let step rate = Harness.to_line (Harness.run small ~seed:33 ~rate) in
  let seq = List.map step rates in
  Dpool.set_cap (Some 4);
  Fun.protect
    ~finally:(fun () -> Dpool.set_cap None)
    (fun () ->
      List.iter
        (fun jobs ->
          let par = Pool.map ~jobs step rates in
          List.iter2
            (Alcotest.(check string) (Printf.sprintf "jobs=%d byte-identical" jobs))
            seq par)
        [ 2; 4 ])

(* Fabric (parallel single-run engine): the same deployment over 4
   partitions must produce the same bytes whether the windows execute on
   1 or 4 worker domains. *)
let test_fabric_domains_identical () =
  let mode = Harness.Fab { parts = 4; domains = 4 } in
  let run () = Harness.run ~mode small ~seed:35 ~rate:400.0 in
  Dpool.set_cap (Some 1);
  let solo = Fun.protect ~finally:(fun () -> Dpool.set_cap None) run in
  Dpool.set_cap (Some 4);
  let wide = Fun.protect ~finally:(fun () -> Dpool.set_cap None) run in
  Alcotest.(check int) "solo collapses to one worker" 1 solo.Harness.workers;
  Alcotest.(check int) "wide uses four workers" 4 wide.Harness.workers;
  Alcotest.(check bool) "windowed execution" true (solo.Harness.windows > 0);
  Alcotest.(check string) "domains byte-identical"
    (Harness.to_line solo) (Harness.to_line wide);
  Alcotest.(check bool) "fabric run did real work" true (solo.Harness.offered > 500);
  Alcotest.(check int) "fabric accounting" solo.Harness.offered
    (solo.Harness.ok + solo.Harness.misses + solo.Harness.shed + solo.Harness.failed)

let () =
  Alcotest.run "serve"
    [
      ( "load",
        [
          Alcotest.test_case "client span" `Quick test_client_span;
          Alcotest.test_case "client words bounded" `Quick test_client_words_bounded;
        ] );
      ( "harness",
        [
          Alcotest.test_case "accounting" `Quick test_harness_accounting;
          Alcotest.test_case "web target" `Quick test_harness_web_target;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "batching" `Quick test_batching_coalesces;
          Alcotest.test_case "admission" `Quick test_admission_sheds_and_bounds_tail;
          Alcotest.test_case "all-on" `Quick test_all_on_beats_baseline;
          Alcotest.test_case "p2c clean" `Quick test_p2c_runs_clean;
          Alcotest.test_case "off-knee guard" `Quick test_off_knee_guard;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seq repeatable" `Quick test_seq_repeatable;
          Alcotest.test_case "pool jobs" `Quick test_pool_jobs_identical;
          Alcotest.test_case "fabric domains" `Quick test_fabric_domains_identical;
        ] );
    ]
