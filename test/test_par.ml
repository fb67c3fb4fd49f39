(* Tests for the parallel single-run engine stack: lookahead extraction
   from latency models, the Engine windowing primitives, Par/Fabric
   determinism (byte-identical traces and metrics for any worker-domain
   count), mailbox safety under random workloads, and the guard rails
   (single-shot runs, nemesis rejection, strict CLI flags). *)

open Splay_sim
open Support
module Obs = Splay_obs.Obs
module Addr = Splay_net.Addr
module Topology = Splay_net.Topology
module Latency = Splay_net.Latency
module Fabric = Splay_net.Fabric
module Env = Splay_runtime.Env
module Apps = Splay_apps

(* {2 Latency.min_rtt / lookahead} *)

let opt_float = Alcotest.(option (float 1e-12))
let syn dist = Latency.synthetic ~dist ~seed:4 ()

let test_min_rtt_dists () =
  Alcotest.check opt_float "constant" (Some 0.02) (Latency.min_rtt (syn (Latency.Constant 0.02)));
  Alcotest.check opt_float "uniform lo" (Some 0.03)
    (Latency.min_rtt (syn (Latency.Uniform { lo = 0.03; hi = 0.09 })));
  Alcotest.check opt_float "lognormal unbounded" None
    (Latency.min_rtt (syn (Latency.Lognormal { median = 0.05; sigma = 0.5 })));
  Alcotest.check opt_float "classes: cheapest positive weight" (Some 0.04)
    (Latency.min_rtt (syn (Latency.Classes [| (0.0, 0.001); (0.25, 0.04); (0.75, 0.1) |])));
  Alcotest.check opt_float "default transit-stub mix" (Some 0.01)
    (Latency.min_rtt (Latency.synthetic ~seed:4 ()));
  Alcotest.check opt_float "lookahead = min_rtt / 2" (Some 0.01)
    (Latency.lookahead (syn (Latency.Constant 0.02)));
  Alcotest.check opt_float "lookahead of lognormal" None
    (Latency.lookahead (syn (Latency.Lognormal { median = 0.05; sigma = 0.5 })))

(* Every sampled cross-host delay must honor the promise the parallel
   engine builds windows from: one-way delay >= min_rtt / 2. *)
let check_delay_floor name lat ~hosts =
  match Latency.min_rtt lat with
  | None -> Alcotest.failf "%s: expected a min_rtt" name
  | Some v ->
      Alcotest.(check bool) (name ^ ": min_rtt positive") true (v > 0.0);
      let rng = Engine.rng (Engine.create ~seed:3 ()) in
      for _ = 1 to 300 do
        let a = Rng.int rng hosts and b = Rng.int rng hosts in
        if a <> b then begin
          let cell = { Eheap.v = 0.0 } in
          Latency.delay_to lat cell a b;
          let d = cell.Eheap.v in
          if d +. 1e-12 < v /. 2.0 then
            Alcotest.failf "%s: delay %g for (%d,%d) below min_rtt/2 = %g" name d a b (v /. 2.0)
        end
      done

let test_delay_floor_synthetic () =
  check_delay_floor "transit-stub" (Latency.synthetic ~seed:11 ()) ~hosts:200;
  check_delay_floor "uniform"
    (syn (Latency.Uniform { lo = 0.008; hi = 0.2 }))
    ~hosts:200

let test_min_rtt_matrix () =
  let rng = Engine.rng (Engine.create ~seed:9 ()) in
  let topo = Topology.transit_stub ~transits:3 ~stubs_per_transit:5 rng in
  let stubs = Topology.stub_routers topo in
  let stub_of h = stubs.(h mod Array.length stubs) in
  let lat = Latency.matrix topo ~stub_of in
  check_delay_floor "matrix" lat ~hosts:(2 * Array.length stubs);
  (* two hosts can share a stub router, so the bound can never exceed the
     intra-stub RTT *)
  match Latency.min_rtt lat with
  | Some v ->
      Alcotest.(check bool) "bounded by intra-stub rtt" true
        (v <= (2.0 *. Topology.intra_stub_delay topo) +. 1e-12)
  | None -> Alcotest.fail "matrix must have a min_rtt"

let test_of_fn_min_rtt () =
  let f _ _ = 0.01 in
  Alcotest.check opt_float "explicit" (Some 0.004)
    (Latency.min_rtt (Latency.of_fn ~name:"fn" ~min_rtt:0.004 f));
  Alcotest.check opt_float "absent" None (Latency.min_rtt (Latency.of_fn ~name:"fn" f));
  match Latency.of_fn ~name:"fn" ~min_rtt:0.0 f with
  | _ -> Alcotest.fail "min_rtt = 0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_fabric_rejects_unbounded () =
  let reject name lat =
    match Fabric.create ~latency:lat ~hosts:8 ~parts:2 () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (name ^ ": error names the model") true
          (String.length msg > 0)
  in
  reject "lognormal" (syn (Latency.Lognormal { median = 0.05; sigma = 0.5 }));
  reject "of_fn without min_rtt" (Latency.of_fn ~name:"fn" (fun _ _ -> 0.01));
  (* the escape hatch with an explicit bound is accepted, and an empty
     deployment drains in zero windows *)
  let fab =
    Fabric.create
      ~latency:(Latency.of_fn ~name:"fn" ~min_rtt:0.01 (fun _ _ -> 0.02))
      ~hosts:8 ~parts:2 ()
  in
  Alcotest.(check int) "empty fabric drains" 0 (Fabric.run fab).Par.windows

(* {2 Engine windowing primitives} *)

let test_next_at_run_to () =
  let e = Engine.create ~seed:1 () in
  Alcotest.(check bool) "empty queue -> infinity" true (Engine.next_at e = infinity);
  let fired = ref [] in
  List.iter
    (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)))
    [ 1.0; 2.0; 3.0 ];
  Alcotest.(check (float 0.0)) "next_at sees the head" 1.0 (Engine.next_at e);
  Engine.run_to e ~stop:2.0;
  Alcotest.(check (list (float 0.0))) "strictly below stop" [ 1.0 ] !fired;
  Alcotest.(check (float 0.0)) "clock stays at the last event" 1.0 (Engine.now e);
  Alcotest.(check (float 0.0)) "stop-time event still queued" 2.0 (Engine.next_at e);
  Engine.run_to e ~stop:2.5;
  Alcotest.(check (list (float 0.0))) "half-open windows compose" [ 2.0; 1.0 ] !fired;
  Engine.run_to e ~stop:infinity;
  Alcotest.(check (list (float 0.0))) "drained" [ 3.0; 2.0; 1.0 ] !fired;
  Alcotest.(check bool) "empty again" true (Engine.next_at e = infinity)

(* {2 Par: partition 0 of a 1-partition run is the sequential engine} *)

let clock_workload e =
  let total = ref 0.0 in
  let rng = Engine.rng e in
  for _ = 1 to 50 do
    ignore (Engine.schedule e ~delay:(Rng.float rng 10.0) (fun () -> total := !total +. Engine.now e))
  done;
  total

let test_parts1_is_sequential () =
  let plain = Engine.create ~seed:5 () in
  let t_plain = clock_workload plain in
  ignore (Engine.run plain);
  let p = Par.create ~seed:5 ~lookahead:0.01 ~parts:1 () in
  let t_par = clock_workload (Par.engine p 0) in
  let info = Par.run p in
  Alcotest.(check (float 0.0)) "same event history" !t_plain !t_par;
  Alcotest.(check (float 0.0)) "same final clock" (Engine.now plain) (Engine.now (Par.engine p 0));
  Alcotest.(check int) "all events fired" 50 info.Par.events_fired

let test_par_run_guards () =
  let p = Par.create ~lookahead:0.01 ~parts:2 () in
  ignore (Par.run p);
  (match Par.run p with
  | _ -> Alcotest.fail "second run must fail: Par.t is single-shot"
  | exception Invalid_argument _ -> ());
  let p2 = Par.create ~lookahead:0.01 ~parts:2 () in
  Engine.set_perturbation (Par.engine p2 0);
  match Par.run p2 with
  | _ -> Alcotest.fail "perturbed engines must be rejected"
  | exception Invalid_argument _ -> ()

(* {2 Fabric: a small epidemic flood, the determinism workhorse} *)

let fabric_epidemic ~n ~parts ~seed ~domains () =
  let fab = Fabric.create ~seed ~hosts:n ~parts () in
  let graph_rng = Rng.split (Engine.rng (Fabric.engine fab 0)) in
  let addrs = Array.init n (fun i -> Addr.make i 9000) in
  let strides = Array.init 4 (fun _ -> 1 + Rng.int graph_rng (max 1 (n - 1))) in
  let config = { Apps.Epidemic.fanout = 3; rpc_timeout = 5.0; oneway = true } in
  let insts = Array.make n None in
  let env0 = ref None in
  for i = 0 to n - 1 do
    let peers = Array.to_list (Array.map (fun s -> addrs.((i + s) mod n)) strides) in
    let env = Env.create (Fabric.net_of_host fab i) ~me:addrs.(i) ~nodes:peers in
    if i = 0 then env0 := Some env;
    Apps.Epidemic.app ~config ~register:(fun x -> insts.(i) <- Some x) env
  done;
  let origin = match insts.(0) with Some x -> x | None -> assert false in
  let env0 = match !env0 with Some e -> e | None -> assert false in
  ignore (Env.thread env0 ~name:"origin" (fun () -> Apps.Epidemic.broadcast origin "r0"));
  let info = Fabric.run ~domains fab in
  let covered =
    Array.fold_left
      (fun acc -> function
        | Some x when Apps.Epidemic.has_received x "r0" -> acc + 1
        | _ -> acc)
      0 insts
  in
  (info, covered, Fabric.messages_sent fab, Fabric.messages_dropped fab)

(* The traced run as a byte string: coverage and counters folded into a
   summary line, plus the merged trace and metrics dumps. *)
let epidemic_dump ~domains () =
  with_obs (fun () ->
      let info, covered, sent, dropped = fabric_epidemic ~n:48 ~parts:4 ~seed:7 ~domains () in
      ( Printf.sprintf "windows=%d events=%d covered=%d sent=%d dropped=%d" info.Par.windows
          info.Par.events_fired covered sent dropped,
        Obs.trace_jsonl (),
        Obs.metrics_jsonl () ))

(* The core promise: a run is a pure function of (seed, parts) — the
   number of domains that *execute* it must not leak into any output.
   set_cap forces real worker domains even on a single-core CI box. *)
let test_domains_byte_identical () =
  Dpool.set_cap (Some 4);
  Fun.protect
    ~finally:(fun () -> Dpool.set_cap None)
    (fun () ->
      let s1, t1, m1 = epidemic_dump ~domains:1 () in
      let s2, t2, m2 = epidemic_dump ~domains:2 () in
      let s4, t4, m4 = epidemic_dump ~domains:4 () in
      Alcotest.(check bool) "trace nonempty" true (String.length t1 > 0);
      Alcotest.(check bool) "metrics nonempty" true (String.length m1 > 0);
      Alcotest.(check string) "summary identical (2 domains)" s1 s2;
      Alcotest.(check string) "summary identical (4 domains)" s1 s4;
      Alcotest.(check string) "trace byte-identical (2 domains)" t1 t2;
      Alcotest.(check string) "trace byte-identical (4 domains)" t1 t4;
      Alcotest.(check string) "metrics byte-identical (2 domains)" m1 m2;
      Alcotest.(check string) "metrics byte-identical (4 domains)" m1 m4)

(* {2 Golden parallel fixture} *)

(* Same regeneration story as the chord_seed7 fixtures:
     SPLAY_GOLDEN_DIR=$PWD/test/golden dune exec test/test_par.exe -- test golden *)
let test_golden_par_trace () =
  let _, trace, metrics = epidemic_dump ~domains:1 () in
  match Sys.getenv_opt "SPLAY_GOLDEN_DIR" with
  | Some dir ->
      write_file (Filename.concat dir "epidemic_par_seed7.trace.jsonl") trace;
      write_file (Filename.concat dir "epidemic_par_seed7.metrics.jsonl") metrics;
      Printf.printf "regenerated golden files under %s\n" dir
  | None ->
      Alcotest.(check bool) "golden par trace is byte-identical" true
        (read_file (golden_file "epidemic_par_seed7.trace.jsonl") = trace);
      Alcotest.(check bool) "golden par metrics are byte-identical" true
        (read_file (golden_file "epidemic_par_seed7.metrics.jsonl") = metrics)

(* {2 Mailbox safety under random shapes} *)

(* Any (population, partition count) must drain without tripping the
   past-delivery check inside Par.absorb_mail (which raises Failure) and
   without inventing or losing messages. *)
let test_mailbox_safety =
  QCheck.Test.make ~name:"random fabrics drain without past deliveries" ~count:10
    QCheck.(pair (int_range 12 40) (int_range 1 5))
    (fun (n, parts) ->
      let info, covered, sent, dropped = fabric_epidemic ~n ~parts ~seed:(n + (7 * parts)) ~domains:parts () in
      info.Par.windows >= 0 && covered >= 1 && sent >= dropped && sent > 0)

(* {2 Pool and check sweeps on real worker domains} *)

(* test_pool already pins jobs-count determinism, but on a single-core
   machine Dpool clamps every batch to the calling domain. Force real
   domains so the merge logic is exercised under true parallelism. *)
let pool_trial seed =
  let e = Engine.create ~seed () in
  let c = Obs.counter "par.test.ticks" in
  let total = ref 0 in
  for i = 1 to 40 do
    ignore
      (Engine.schedule e
         ~delay:(Float.of_int (i * seed mod 13))
         (fun () ->
           Obs.incr c;
           let s = Obs.span "par.pool.tick" in
           total := !total + i;
           Obs.finish s))
  done;
  ignore (Engine.run e);
  Printf.sprintf "seed=%d total=%d end=%.3f" seed !total (Engine.now e)

let test_pool_forced_domains_deterministic () =
  Dpool.set_cap (Some 4);
  Fun.protect
    ~finally:(fun () -> Dpool.set_cap None)
    (fun () ->
      let out jobs =
        with_obs (fun () ->
            let rs = Pool.map ~jobs pool_trial [ 3; 1; 4; 1; 5; 9 ] in
            (rs, Obs.trace_jsonl (), Obs.metrics_jsonl ()))
      in
      let r1, t1, m1 = out 1 in
      let r4, t4, m4 = out 4 in
      Alcotest.(check (list string)) "results identical" r1 r4;
      Alcotest.(check string) "trace identical" t1 t4;
      Alcotest.(check string) "metrics identical" m1 m4)

(* The pool has one global batch slot: submitting from inside a running
   batch (Pool.map or Par.run from within a pool trial) must raise
   rather than corrupt the generation protocol or deadlock. *)
let test_dpool_rejects_nested_submission () =
  Dpool.set_cap (Some 2);
  Fun.protect
    ~finally:(fun () -> Dpool.set_cap None)
    (fun () ->
      match Dpool.run ~workers:2 (fun () -> Dpool.run ~workers:2 (fun () -> ())) with
      | () -> Alcotest.fail "nested Dpool.run must be rejected"
      | exception Invalid_argument _ -> ();
      (* the guard resets: a fresh top-level batch still works *)
      let hits = Atomic.make 0 in
      Dpool.run ~workers:2 (fun () -> Atomic.incr hits);
      Alcotest.(check bool) "pool usable after rejected nesting" true (Atomic.get hits >= 1))

let test_check_sweep_jobs_deterministic () =
  Dpool.set_cap (Some 4);
  Fun.protect
    ~finally:(fun () -> Dpool.set_cap None)
    (fun () ->
      let suites =
        match Splay_check.Suite.find "smoke" with
        | Ok s -> s
        | Error m -> Alcotest.fail m
      in
      let failing jobs =
        let r =
          Splay_check.Runner.sweep ~suites ~seeds:6 ~jobs ~shrink_failures:false ()
        in
        List.concat_map
          (fun (s : Splay_check.Runner.suite_report) ->
            List.map (fun seed -> (s.Splay_check.Runner.r_suite, seed)) s.Splay_check.Runner.r_failing)
          r.Splay_check.Runner.rep_suites
      in
      let f1 = failing 1 and f2 = failing 2 in
      Alcotest.(check (list (pair string int))) "failing seeds identical across jobs" f1 f2)

(* {2 Bench harness CLI: --domains strictness} *)

let test_bench_domains_flag_errors () =
  match Support.bench_exe () with
  | None -> () (* run outside the dune sandbox; nothing to exercise *)
  | Some exe ->
      let run args =
        Sys.command (Filename.quote_command exe args ~stdout:Filename.null ~stderr:Filename.null)
      in
      List.iter
        (fun args ->
          Alcotest.(check int) (String.concat " " ("exit 2 for" :: args)) 2 (run args))
        [ [ "--domains" ]; [ "--domains=" ]; [ "--domains=x" ]; [ "--domains=0" ]; [ "--domains"; "-3" ] ];
      Alcotest.(check int) "exit 0 for valid flag + --list" 0 (run [ "--domains=2"; "--list" ])

let () =
  Alcotest.run "splay_par"
    [
      ( "lookahead",
        [
          Alcotest.test_case "min_rtt per distribution" `Quick test_min_rtt_dists;
          Alcotest.test_case "delay floor (synthetic)" `Quick test_delay_floor_synthetic;
          Alcotest.test_case "matrix min_rtt" `Quick test_min_rtt_matrix;
          Alcotest.test_case "of_fn min_rtt" `Quick test_of_fn_min_rtt;
          Alcotest.test_case "fabric rejects unbounded models" `Quick test_fabric_rejects_unbounded;
        ] );
      ( "engine",
        [
          Alcotest.test_case "next_at / run_to" `Quick test_next_at_run_to;
          Alcotest.test_case "parts=1 is the sequential engine" `Quick test_parts1_is_sequential;
          Alcotest.test_case "run guards" `Quick test_par_run_guards;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical across domain counts" `Quick
            test_domains_byte_identical;
          Alcotest.test_case "golden" `Quick test_golden_par_trace;
          Alcotest.test_case "pool on forced real domains" `Quick
            test_pool_forced_domains_deterministic;
          Alcotest.test_case "dpool rejects nested submission" `Quick
            test_dpool_rejects_nested_submission;
          Alcotest.test_case "check sweep failing seeds across jobs" `Quick
            test_check_sweep_jobs_deterministic;
          QCheck_alcotest.to_alcotest test_mailbox_safety;
        ] );
      ( "bench-cli",
        [ Alcotest.test_case "--domains flag errors" `Quick test_bench_domains_flag_errors ] );
    ]
