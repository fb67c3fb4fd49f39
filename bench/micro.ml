(* Bechamel microbenchmarks for the hot paths of the framework itself: the
   event queue, the PRNG, SHA-1, the codec, ring arithmetic, and one full
   simulated RPC. These are wall-clock costs of the *simulator*, reported
   in nanoseconds per operation.

   A second section runs whole-workload throughput loops over the engine
   (schedule/cancel churn, schedule/pop chains, spawn/suspend) and records
   them to BENCH_engine.json so later changes can be compared against a
   machine-readable baseline. *)

open Bechamel
open Toolkit
open Splay

let bench_eheap () =
  let h = Eheap.create () in
  for i = 0 to 63 do
    Eheap.push h ~at:(Float.of_int (i * 7 mod 64)) ~seq:i i
  done;
  Staged.stage (fun () ->
      Eheap.push h ~at:17.0 ~seq:1_000_000 17;
      ignore (Eheap.pop h))

let bench_engine_schedule_cancel () =
  let e = Engine.create () in
  Staged.stage (fun () ->
      let id = Engine.schedule e ~delay:1000.0 (fun () -> ()) in
      Engine.cancel e id)

let bench_engine_schedule_pop () =
  let e = Engine.create () in
  (* standing population so pops exercise a realistically deep heap *)
  for j = 0 to 999 do
    ignore (Engine.schedule e ~delay:(1.0e12 +. Float.of_int j) (fun () -> ()))
  done;
  Staged.stage (fun () ->
      ignore (Engine.schedule e ~delay:0.0 (fun () -> ()));
      ignore (Engine.step e))

let bench_rng () =
  let r = Rng.create 1 in
  Staged.stage (fun () -> ignore (Rng.exponential r ~mean:1.0))

(* The pre-alias Zipf sampler, kept here as the before/after baseline:
   materialized CDF + binary search, O(log n) cache-missing probes per
   draw. [Rng.Zipf] proper is now a Walker alias table. *)
module Zipf_cdf = struct
  type t = { cdf : float array }

  let create ~n ~s =
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. (Float.of_int (i + 1) ** s));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. total
    done;
    { cdf }

  let draw z rng =
    let u = Rng.float rng 1.0 in
    let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1
end

let zipf_n = 1_000_000

let bench_zipf_alias () =
  let z = Rng.Zipf.create ~n:zipf_n ~s:1.0 in
  let r = Rng.create 1 in
  Staged.stage (fun () -> ignore (Rng.Zipf.draw z r))

let bench_zipf_cdf () =
  let z = Zipf_cdf.create ~n:zipf_n ~s:1.0 in
  let r = Rng.create 1 in
  Staged.stage (fun () -> ignore (Zipf_cdf.draw z r))

let bench_sha1 () =
  let input = String.make 1024 'a' in
  Staged.stage (fun () -> ignore (Crypto.sha1 input))

let bench_codec () =
  let v =
    Codec.Assoc
      [
        ("node", Codec.Assoc [ ("id", Codec.Int 123_456); ("a", Codec.String "42:2001") ]);
        ("hops", Codec.Int 3);
        ("args", Codec.List [ Codec.Int 1; Codec.String "x"; Codec.Bool true ]);
      ]
  in
  Staged.stage (fun () -> ignore (Codec.decode (Codec.encode v)))

let bench_between () =
  Staged.stage (fun () ->
      ignore (Misc.between 123_456 42 999_999 ~modulus:(1 lsl 24) ~incl_lo:false ~incl_hi:true))

let bench_simulated_rpc () =
  Staged.stage (fun () ->
      (* one complete engine run: two endpoints, one call/reply *)
      let eng = Engine.create ~seed:1 () in
      let tb = Testbed.cluster ~n:2 (Engine.rng eng) in
      let net = Net.create eng tb in
      let server = Env.create net ~me:(Addr.make 0 2000) in
      let client = Env.create net ~me:(Addr.make 1 2000) in
      Rpc.server server [ ("echo", fun args -> Codec.List args) ];
      ignore
        (Env.thread client (fun () ->
             ignore (Rpc.call client server.Env.me "echo" [ Codec.Int 42 ])));
      ignore (Engine.run eng))

let tests =
  Test.make_grouped ~name:"splay"
    [
      Test.make ~name:"event heap push+pop (64 entries)" (bench_eheap ());
      Test.make ~name:"engine schedule+cancel" (bench_engine_schedule_cancel ());
      Test.make ~name:"engine schedule+pop (1k standing)" (bench_engine_schedule_pop ());
      Test.make ~name:"rng exponential draw" (bench_rng ());
      Test.make ~name:"zipf draw alias (n=1M)" (bench_zipf_alias ());
      Test.make ~name:"zipf draw cdf baseline (n=1M)" (bench_zipf_cdf ());
      Test.make ~name:"sha1 (1 KiB)" (bench_sha1 ());
      Test.make ~name:"codec encode+decode (rpc reply)" (bench_codec ());
      Test.make ~name:"ring between" (bench_between ());
      Test.make ~name:"simulated rpc (end to end)" (bench_simulated_rpc ());
    ]

(* --- whole-workload engine throughput, recorded to BENCH_engine.json --- *)

(* RPC-timeout-like churn: schedule a far-future timeout, then cancel it.
   This is the workload the flag-based cancel + lazy compaction targets;
   the pre-PR tombstone table held every cancelled event in the heap. *)
let sched_cancel n () =
  let e = Engine.create () in
  for i = 1 to n do
    let id = Engine.schedule e ~delay:(1000.0 +. Float.of_int (i land 1023)) (fun () -> ()) in
    Engine.cancel e id
  done;
  ignore (Engine.run e);
  2 * n

(* A chain of events each scheduling the next, over a standing population
   of 1000 pending events: the figure experiments' steady state. *)
let sched_pop n () =
  let e = Engine.create () in
  let live = ref 0 in
  let rec kick i =
    if i < n then
      ignore
        (Engine.schedule e ~delay:(Float.of_int (i land 63)) (fun () ->
             incr live;
             kick (i + 1)))
  in
  kick 0;
  for j = 0 to 999 do
    ignore (Engine.schedule e ~delay:(Float.of_int (100 + j)) (fun () -> ()))
  done;
  ignore (Engine.run e);
  n

(* Process churn: spawn cooperative processes that each suspend/resume a
   few times, measuring the effect-handler and context-restore path. *)
let spawn_suspend n () =
  let e = Engine.create () in
  for i = 1 to n do
    ignore
      (Engine.spawn e (fun () ->
           for _ = 1 to 8 do
             Engine.sleep (Float.of_int (i land 7))
           done))
  done;
  ignore (Engine.run e);
  n * 9

(* The same lifecycle ops over a small standing population: [spawn_suspend]
   above round-robins tens of thousands of fibers, so at scale it measures
   the memory system walking a working set far beyond L2 as much as the
   scheduler; this variant keeps ~100 fibers live and is the cache-resident
   cost of spawn/sleep/resume itself. *)
let spawn_suspend_hot n () =
  let e = Engine.create () in
  let rounds = n / 100 in
  for r = 1 to rounds do
    for i = 1 to 100 do
      ignore
        (Engine.spawn e (fun () ->
             for _ = 1 to 8 do
               Engine.sleep (Float.of_int ((r + i) land 7))
             done))
    done;
    ignore (Engine.run e)
  done;
  rounds * 100 * 9

let run () =
  Report.section "Microbenchmarks — framework hot paths (Bechamel)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Printf.sprintf "%.0f" t
          | _ -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        [ name; est; r2 ] :: acc)
      results []
    |> List.sort compare
  in
  Report.table ~header:[ "benchmark"; "ns/op"; "r²" ] rows;
  Report.section "Engine throughput workloads";
  let churn = Common.pick ~quick:500_000 ~full:2_000_000 in
  let chain = Common.pick ~quick:200_000 ~full:1_000_000 in
  let procs = Common.pick ~quick:20_000 ~full:100_000 in
  let rows =
    List.map
      (fun (name, f) -> Row.time ~reps:1 name (fun () -> Row.timed (fun () -> (f (), []))))
      [
        ("schedule_cancel_churn", sched_cancel churn);
        ("schedule_pop_chain", sched_pop chain);
        ("spawn_suspend", spawn_suspend procs);
        ("spawn_suspend_hot", spawn_suspend_hot procs);
      ]
  in
  Row.write ~dir:!Common.out_dir "BENCH_engine.json" rows
