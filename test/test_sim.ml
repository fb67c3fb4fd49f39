(* Tests for the simulation substrate: RNG, heap, engine, ivar, channel. *)

open Splay_sim

let check_float = Alcotest.(check (float 1e-9))

(* {2 Event heap} *)

let drain_eheap h =
  let rec go acc = match Eheap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_eheap_order () =
  let h = Eheap.create () in
  List.iteri (fun i x -> Eheap.push h ~at:(Float.of_int x) ~seq:i x) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check int) "size" 7 (Eheap.size h);
  check_float "min_at" 1.0 (Eheap.min_at h);
  Alcotest.(check (option int)) "peek" (Some 1) (Eheap.peek h);
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain_eheap h);
  Alcotest.(check (option int)) "empty pop" None (Eheap.pop h)

let test_eheap_empty () =
  let h = Eheap.create () in
  Alcotest.(check bool) "is_empty" true (Eheap.is_empty h);
  Alcotest.(check bool) "min_at empty" true (Eheap.min_at h = infinity);
  Alcotest.(check (option int)) "peek" None (Eheap.peek h);
  Eheap.push h ~at:1.0 ~seq:0 1;
  Eheap.clear h;
  Alcotest.(check bool) "cleared" true (Eheap.is_empty h)

let test_eheap_fifo_ties () =
  (* entries sharing [at] must come out in seq (= insertion) order *)
  let h = Eheap.create () in
  for i = 0 to 9 do
    Eheap.push h ~at:1.0 ~seq:i i
  done;
  Eheap.push h ~at:0.5 ~seq:100 100;
  Alcotest.(check (list int)) "fifo among ties" (100 :: List.init 10 Fun.id) (drain_eheap h)

let test_eheap_filter () =
  let h = Eheap.create () in
  (* i * 7 mod 100 is a bijection on 0..99, so every key is unique *)
  for i = 0 to 99 do
    Eheap.push h ~at:(Float.of_int (i * 7 mod 100)) ~seq:i i
  done;
  Eheap.filter_in_place h (fun x -> x mod 2 = 0);
  Alcotest.(check int) "size halved" 50 (Eheap.size h);
  let expected =
    List.init 50 (fun k -> 2 * k)
    |> List.sort (fun a b -> compare (a * 7 mod 100) (b * 7 mod 100))
  in
  Alcotest.(check (list int)) "survivors sorted" expected (drain_eheap h);
  Eheap.filter_in_place h (fun _ -> false);
  Alcotest.(check bool) "filter to empty" true (Eheap.is_empty h)

let prop_eheap_sorted =
  QCheck.Test.make ~name:"event heap pops in (at, seq) order" ~count:200
    QCheck.(list (float_range 0.0 100.0))
    (fun ats ->
      let h = Eheap.create () in
      List.iteri (fun i at -> Eheap.push h ~at ~seq:i i) ats;
      let keyed = List.mapi (fun i at -> (at, i)) ats in
      drain_eheap h = List.map snd (List.sort compare keyed))

(* {2 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* draws from the parent must not change the child's stream *)
  let c' = Rng.copy c in
  ignore (Rng.int a 100);
  Alcotest.(check int) "split unaffected" (Rng.int c' 1000) (Rng.int c 1000)

(* Golden splitmix64 outputs: the raw stream for seed 42, across a split.
   These pin the generator's exact bit-level behaviour — any change to the
   core algorithm (or to what [split] consumes from the parent) invalidates
   every recorded trace, golden fixture and published failing seed, so it
   must show up here first. *)
let test_rng_golden () =
  let check = Alcotest.(check int64) in
  let r = Rng.create 42 in
  check "draw 1" 0xaba1321580cecf6aL (Rng.bits64 r);
  check "draw 2" 0x700a26608762924cL (Rng.bits64 r);
  check "draw 3" 0xb3300b9da09ef58fL (Rng.bits64 r);
  check "draw 4" 0xec28dbaf22cac8bdL (Rng.bits64 r);
  let c = Rng.split r in
  check "child draw 1" 0x45f546d5c6a74029L (Rng.bits64 c);
  check "child draw 2" 0x9d65b92950785430L (Rng.bits64 c);
  check "parent after split" 0xba5446c3a7b9204bL (Rng.bits64 r)

(* Parent and child streams after a split should look pairwise independent:
   the sample correlation of matched uniform draws stays near zero. *)
let test_rng_split_uncorrelated () =
  let n = 100_000 in
  let a = Rng.create 42 in
  let b = Rng.split a in
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 and sxy = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.float a 1.0 and y = Rng.float b 1.0 in
    sx := !sx +. x;
    sy := !sy +. y;
    sxx := !sxx +. (x *. x);
    syy := !syy +. (y *. y);
    sxy := !sxy +. (x *. y)
  done;
  let nf = Float.of_int n in
  let cov = (!sxy /. nf) -. (!sx /. nf *. (!sy /. nf)) in
  let var s2 s = (s2 /. nf) -. (s /. nf *. (s /. nf)) in
  let corr = cov /. sqrt (var !sxx !sx *. var !syy !sy) in
  Alcotest.(check bool)
    (Printf.sprintf "correlation %.4f small" corr)
    true
    (Float.abs corr < 0.02)

let test_rng_ranges () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let v = Rng.int_in r 5 9 in
    Alcotest.(check bool) "int_in range" true (v >= 5 && v <= 9);
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. Float.of_int n in
  Alcotest.(check bool) "mean close to 4" true (mean > 3.8 && mean < 4.2)

let test_rng_chance () =
  let r = Rng.create 3 in
  Alcotest.(check bool) "p=0" false (Rng.chance r 0.0);
  Alcotest.(check bool) "p=1" true (Rng.chance r 1.0);
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.chance r 0.3 then incr hits
  done;
  let ratio = Float.of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "p=0.3" true (ratio > 0.27 && ratio < 0.33)

let test_rng_zipf () =
  let r = Rng.create 5 in
  let z = Rng.Zipf.create ~n:100 ~s:1.0 in
  let counts = Array.make 101 0 in
  for _ = 1 to 10_000 do
    let k = Rng.Zipf.draw z r in
    Alcotest.(check bool) "rank in range" true (k >= 1 && k <= 100);
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 1 must dominate rank 50 under s=1 *)
  Alcotest.(check bool) "skewed" true (counts.(1) > counts.(50) * 5)

(* Golden draw fixtures: the alias table is built deterministically from
   the weights, so a fixed seed pins the exact rank sequence. A change
   here means the sampler's stream moved — every fixed-seed serve run
   with it. *)
let test_rng_zipf_golden () =
  let r = Rng.create 7 in
  let z = Rng.Zipf.create ~n:1000 ~s:1.0 in
  let got = List.init 16 (fun _ -> Rng.Zipf.draw z r) in
  Alcotest.(check (list int)) "n=1000 s=1.0 seed=7"
    [ 247; 2; 431; 2; 9; 183; 462; 2; 22; 3; 2; 27; 987; 54; 12; 2 ]
    got;
  let r = Rng.create 7 in
  let z = Rng.Zipf.create ~n:5 ~s:0.8 in
  let got = List.init 12 (fun _ -> Rng.Zipf.draw z r) in
  Alcotest.(check (list int)) "n=5 s=0.8 seed=7" [ 2; 3; 3; 3; 4; 1; 3; 1; 5; 3; 3; 5 ] got

(* The alias table must reproduce the exact Zipf mass function, not just
   "something skewed": compare rank-1/2/10 frequencies against 1/(r^s H)
   within Monte-Carlo tolerance. *)
let test_rng_zipf_exactness () =
  let n = 1000 and s = 1.0 in
  let h = ref 0.0 in
  for r = 1 to n do
    h := !h +. (1.0 /. (Float.of_int r ** s))
  done;
  let z = Rng.Zipf.create ~n ~s in
  let r = Rng.create 123 in
  let trials = 200_000 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to trials do
    let k = Rng.Zipf.draw z r in
    counts.(k) <- counts.(k) + 1
  done;
  List.iter
    (fun rank ->
      let expect = 1.0 /. ((Float.of_int rank ** s) *. !h) in
      let got = Float.of_int counts.(rank) /. Float.of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d frequency" rank)
        true
        (Float.abs (got -. expect) < 0.004))
    [ 1; 2; 10 ]

let test_rng_sample () =
  let r = Rng.create 11 in
  let xs = List.init 20 Fun.id in
  let s = Rng.sample r 5 xs in
  Alcotest.(check int) "size" 5 (List.length s);
  Alcotest.(check int) "no dup" 5 (List.length (List.sort_uniq Int.compare s));
  Alcotest.(check (list int)) "all when k>=n" xs (Rng.sample r 30 xs)

let prop_pareto_support =
  QCheck.Test.make ~name:"pareto >= scale" ~count:500 QCheck.(int_bound 10_000)
    (fun seed ->
      let r = Rng.create seed in
      Rng.pareto r ~scale:2.0 ~shape:1.5 >= 2.0)

(* {2 Engine basics} *)

let test_engine_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.cancel e id;
  ignore (Engine.run e);
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "no pending" 0 (Engine.pending_events e)

let test_engine_cancel_after_fire () =
  (* regression: cancelling an event that already fired used to decrement
     the live-event count and leak a tombstone; with the flag-based cancel
     it must be a strict no-op *)
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> ()));
  ignore (Engine.run ~until:1.5 e);
  Alcotest.(check bool) "fired" true !fired;
  Engine.cancel e id;
  Engine.cancel e id;
  Alcotest.(check int) "accounting undisturbed" 1 (Engine.pending_events e);
  ignore (Engine.run e);
  Alcotest.(check int) "drained" 0 (Engine.pending_events e)

let test_engine_cancel_churn () =
  (* heavy create-then-cancel churn (the RPC-timeout pattern) must not
     bloat the queue or perturb the run: only the survivor fires *)
  let e = Engine.create () in
  for i = 1 to 10_000 do
    let id = Engine.schedule e ~delay:(100.0 +. Float.of_int (i land 63)) (fun () -> ()) in
    Engine.cancel e id
  done;
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  Alcotest.(check int) "one pending" 1 (Engine.pending_events e);
  ignore (Engine.run e);
  Alcotest.(check int) "survivor fired" 1 !fired;
  check_float "clock stops at survivor" 1.0 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> incr fired));
  ignore (Engine.run ~until:2.0 e);
  Alcotest.(check int) "only first" 1 !fired;
  check_float "clock clamped" 2.0 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "rest" 2 !fired

let test_engine_run_until_cancelled_head () =
  (* regression: a cancelled event sitting at the heap head with
     at <= limit used to pass [run ~until]'s limit check, after which
     [step] skipped the tombstone and fired the next live event past the
     limit, dragging the clock with it *)
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> fired := true));
  Engine.cancel e id;
  ignore (Engine.run ~until:2.0 e);
  Alcotest.(check bool) "late event not fired" false !fired;
  check_float "clock clamped to limit" 2.0 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check bool) "fires once resumed" true !fired;
  check_float "clock at late event" 10.0 (Engine.now e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~delay:2.0 (fun () -> times := Engine.now e :: !times))));
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "times" [ 1.0; 3.0 ] (List.rev !times)

(* {2 Processes} *)

let test_proc_sleep () =
  let e = Engine.create () in
  let t_end = ref 0.0 in
  ignore
    (Engine.spawn e (fun () ->
         Engine.sleep 1.5;
         Engine.sleep 2.5;
         t_end := Engine.now e));
  ignore (Engine.run e);
  check_float "slept" 4.0 !t_end;
  Alcotest.(check (list reject)) "no crash" [] (List.map snd (Engine.crashed e))

let test_proc_concurrent () =
  let e = Engine.create () in
  let log = ref [] in
  let mk name d = ignore (Engine.spawn e (fun () -> Engine.sleep d; log := name :: !log)) in
  mk "slow" 3.0;
  mk "fast" 1.0;
  mk "mid" 2.0;
  ignore (Engine.run e);
  Alcotest.(check (list string)) "interleaved" [ "fast"; "mid"; "slow" ] (List.rev !log)

let test_proc_kill_while_sleeping () =
  let e = Engine.create () in
  let cleaned = ref false and finished = ref false in
  let p =
    Engine.spawn e (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Engine.sleep 10.0;
            finished := true))
  in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Engine.kill e p));
  ignore (Engine.run e);
  Alcotest.(check bool) "cleanup ran" true !cleaned;
  Alcotest.(check bool) "body did not finish" false !finished;
  Alcotest.(check bool) "dead" false (Engine.alive p);
  check_float "killed at 1s, not 10s" 1.0 (Engine.now e)

let test_proc_kill_before_start () =
  let e = Engine.create () in
  let ran = ref false in
  let exited = ref false in
  let p = Engine.spawn e (fun () -> ran := true) in
  Engine.on_exit p (fun () -> exited := true);
  Engine.kill e p;
  ignore (Engine.run e);
  Alcotest.(check bool) "never ran" false !ran;
  Alcotest.(check bool) "exit hook ran" true !exited

let test_proc_self_kill () =
  let e = Engine.create () in
  let after = ref false in
  ignore
    (Engine.spawn e (fun () ->
         let self = Engine.self () in
         Engine.kill e self;
         after := true));
  ignore (Engine.run e);
  Alcotest.(check bool) "nothing after self-kill" false !after;
  Alcotest.(check int) "not a crash" 0 (List.length (Engine.crashed e))

(* The untraced engine recycles a proc's timer event record across
   consecutive sleeps. Kill a proc whose record has been recycled several
   times while its timer is pending: cleanup must run, the tombstoned
   record must not resurrect, and an unrelated proc must be unaffected. *)
let test_proc_kill_recycled_timer () =
  let e = Engine.create () in
  let cleaned = ref false and finished = ref false and other = ref 0 in
  let p =
    Engine.spawn e (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            (* several sleeps so the timer record is a recycled one *)
            for _ = 1 to 5 do
              Engine.sleep 0.5
            done;
            Engine.sleep 10.0;
            finished := true))
  in
  ignore (Engine.spawn e (fun () -> for _ = 1 to 8 do Engine.sleep 1.0; incr other done));
  ignore (Engine.schedule e ~delay:4.0 (fun () -> Engine.kill e p));
  ignore (Engine.run e);
  Alcotest.(check bool) "cleanup ran" true !cleaned;
  Alcotest.(check bool) "body did not finish" false !finished;
  Alcotest.(check bool) "dead" false (Engine.alive p);
  Alcotest.(check int) "other proc unaffected" 8 !other;
  check_float "ran to other proc's end" 8.0 (Engine.now e);
  Alcotest.(check (list reject)) "no crash" [] (List.map snd (Engine.crashed e))

(* Kill landing in the window between a sleep timer firing and the
   same-instant resume running: the timer (scheduled at spawn time) fires
   at t=1 and queues the resume; the kill event carries a sequence number
   between the two, so it runs while the proc is resume-pending. The
   pending resume must then be a no-op, not a resurrection. *)
let test_proc_kill_resume_pending () =
  let e = Engine.create () in
  let cleaned = ref false and finished = ref false in
  let p =
    Engine.spawn e (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Engine.sleep 1.0;
            finished := true))
  in
  (* the helper's start event runs after [p] has begun its sleep, so this
     kill event's sequence number sits between p's timer and the resume
     the timer will enqueue — at t=1 the timer fires first, then the kill,
     then the orphaned resume *)
  ignore
    (Engine.spawn e (fun () ->
         ignore (Engine.schedule e ~delay:1.0 (fun () -> Engine.kill e p))));
  ignore (Engine.run e);
  Alcotest.(check bool) "cleanup ran" true !cleaned;
  Alcotest.(check bool) "body did not finish" false !finished;
  Alcotest.(check bool) "dead" false (Engine.alive p);
  Alcotest.(check (list reject)) "no crash" [] (List.map snd (Engine.crashed e))

(* Zero-length sleeps take the same-instant ring; several procs looping on
   them must keep strict FIFO interleaving even as each proc's recycled
   record re-enters the ring every iteration. *)
let test_proc_sleep_zero_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for id = 0 to 2 do
    ignore
      (Engine.spawn e (fun () ->
           for round = 0 to 3 do
             Engine.sleep 0.0;
             log := (id, round) :: !log
           done))
  done;
  ignore (Engine.run e);
  let expect =
    List.concat_map (fun round -> List.map (fun id -> (id, round)) [ 0; 1; 2 ]) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (pair int int))) "round-robin FIFO" expect (List.rev !log);
  check_float "no time passed" 0.0 (Engine.now e)

let test_proc_exit_hooks_order () =
  let e = Engine.create () in
  let log = ref [] in
  let p = Engine.spawn e (fun () -> Engine.sleep 1.0) in
  Engine.on_exit p (fun () -> log := 1 :: !log);
  Engine.on_exit p (fun () -> log := 2 :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !log);
  (* registering after death runs immediately *)
  let now = ref false in
  Engine.on_exit p (fun () -> now := true);
  Alcotest.(check bool) "immediate" true !now

let test_proc_crash_recorded () =
  let e = Engine.create () in
  ignore (Engine.spawn e (fun () -> failwith "boom"));
  ignore (Engine.run e);
  match Engine.crashed e with
  | [ (_, Failure m) ] -> Alcotest.(check string) "msg" "boom" m
  | _ -> Alcotest.fail "expected one crash"

let test_check_crashed () =
  let e = Engine.create () in
  ignore (Engine.spawn e ~name:"quiet" (fun () -> Engine.sleep 1.0));
  ignore (Engine.run e);
  Engine.check_crashed e;
  ignore (Engine.spawn e ~name:"doomed" (fun () -> failwith "boom"));
  ignore (Engine.run e);
  Alcotest.check_raises "names the fiber and its exception"
    (Failure "process doomed crashed: Failure(\"boom\")")
    (fun () -> Engine.check_crashed e)

let test_suspend_resolve_once () =
  let e = Engine.create () in
  let resolver = ref None in
  let got = ref [] in
  ignore
    (Engine.spawn e (fun () ->
         let v = Engine.suspend_ (fun resolve -> resolver := Some resolve) in
         got := v :: !got));
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         match !resolver with
         | Some r ->
             r (Ok 1);
             r (Ok 2)
         | None -> Alcotest.fail "no resolver"));
  ignore (Engine.run e);
  Alcotest.(check (list int)) "only first resolve" [ 1 ] !got

let test_suspend_error () =
  let e = Engine.create () in
  let caught = ref false in
  ignore
    (Engine.spawn e (fun () ->
         try ignore (Engine.suspend_ (fun resolve -> resolve (Error Not_found)))
         with Not_found -> caught := true));
  ignore (Engine.run e);
  Alcotest.(check bool) "exn delivered" true !caught

(* {2 Ivar} *)

let test_ivar_basic () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  ignore (Engine.spawn e (fun () -> got := Ivar.read iv));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> Ivar.fill iv 42));
  ignore (Engine.run e);
  Alcotest.(check int) "read" 42 !got;
  Alcotest.(check bool) "filled" true (Ivar.is_filled iv);
  Alcotest.(check bool) "double fill refused" false (Ivar.try_fill iv 1)

let test_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 7;
  let got = ref 0 in
  ignore (Engine.spawn e (fun () -> got := Ivar.read iv));
  ignore (Engine.run e);
  Alcotest.(check int) "immediate" 7 !got

let test_ivar_timeout () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref (Some 1) in
  ignore (Engine.spawn e (fun () -> got := Ivar.read_timeout iv 1.0));
  ignore (Engine.run e);
  Alcotest.(check (option int)) "timed out" None !got;
  check_float "timeout respected" 1.0 (Engine.now e)

let test_ivar_timeout_beaten () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  ignore (Engine.spawn e (fun () -> got := Ivar.read_timeout iv 5.0));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Ivar.fill iv 9));
  ignore (Engine.run e);
  Alcotest.(check (option int)) "value wins" (Some 9) !got

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    ignore (Engine.spawn e (fun () -> sum := !sum + Ivar.read iv))
  done;
  ignore (Engine.schedule e ~delay:1.0 (fun () -> Ivar.fill iv 10));
  ignore (Engine.run e);
  Alcotest.(check int) "all woken" 30 !sum

(* {2 Channel} *)

let test_channel_fifo () =
  let e = Engine.create () in
  let c = Channel.create () in
  let got = ref [] in
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to 3 do
           got := Channel.recv c :: !got
         done));
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         Channel.send c 1;
         Channel.send c 2;
         Channel.send c 3));
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_channel_buffered () =
  let e = Engine.create () in
  let c = Channel.create () in
  Channel.send c 5;
  Alcotest.(check int) "buffered" 1 (Channel.length c);
  let got = ref 0 in
  ignore (Engine.spawn e (fun () -> got := Channel.recv c));
  ignore (Engine.run e);
  Alcotest.(check int) "got" 5 !got;
  Alcotest.(check int) "drained" 0 (Channel.length c)

let test_channel_timeout_skips_dead_receiver () =
  let e = Engine.create () in
  let c = Channel.create () in
  let first = ref (Some 99) and second = ref 0 in
  ignore (Engine.spawn e (fun () -> first := Channel.recv_timeout c 1.0));
  ignore (Engine.spawn e (fun () -> second := Channel.recv c));
  (* send after the first receiver timed out: must reach the second *)
  ignore (Engine.schedule e ~delay:2.0 (fun () -> Channel.send c 7));
  ignore (Engine.run e);
  Alcotest.(check (option int)) "first timed out" None !first;
  Alcotest.(check int) "second got it" 7 !second

let test_channel_try_recv () =
  let c : int Channel.t = Channel.create () in
  Alcotest.(check (option int)) "empty" None (Channel.try_recv c);
  Channel.send c 1;
  Alcotest.(check (option int)) "some" (Some 1) (Channel.try_recv c)

let test_channel_competing_receivers () =
  let e = Engine.create () in
  let c = Channel.create () in
  let got = ref [] in
  (* bind the blocking recv before reading [!got]: another process may have
     appended while we were suspended (the shared-state pitfall of
     cooperative threads that the paper discusses in Section 4) *)
  for i = 1 to 2 do
    ignore
      (Engine.spawn e (fun () ->
           let v = Channel.recv c in
           got := (i, v) :: !got))
  done;
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         Channel.send c "x";
         Channel.send c "y"));
  ignore (Engine.run e);
  let sorted = List.sort compare !got in
  Alcotest.(check (list (pair int string))) "each got one" [ (1, "x"); (2, "y") ] sorted

(* Determinism of a whole run: same seed, same interleavings. *)
let test_determinism () =
  let run_once seed =
    let e = Engine.create ~seed () in
    let log = Buffer.create 64 in
    let r = Engine.rng e in
    for i = 1 to 5 do
      ignore
        (Engine.spawn e (fun () ->
             Engine.sleep (Rng.float r 10.0);
             Buffer.add_string log (Printf.sprintf "%d@%.6f;" i (Engine.now e))))
    done;
    ignore (Engine.run e);
    Buffer.contents log
  in
  Alcotest.(check string) "identical runs" (run_once 9) (run_once 9);
  Alcotest.(check bool) "seed changes run" true (run_once 9 <> run_once 10)

let prop_schedule_cancel_accounting =
  QCheck.Test.make ~name:"fired events = scheduled - cancelled" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 30) (float_range 0.0 100.0)) (int_bound 30))
    (fun (delays, to_cancel) ->
      let e = Engine.create () in
      let fired = ref 0 in
      let ids = List.map (fun d -> Engine.schedule e ~delay:d (fun () -> incr fired)) delays in
      let cancelled =
        List.filteri (fun i _ -> i < to_cancel) ids
      in
      List.iter (Engine.cancel e) cancelled;
      (* double-cancel must not double-count *)
      List.iter (Engine.cancel e) cancelled;
      ignore (Engine.run e);
      !fired = List.length delays - List.length cancelled && Engine.pending_events e = 0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_eheap_sorted; prop_pareto_support; prop_schedule_cancel_accounting ]

let () =
  Alcotest.run "splay_sim"
    [
      ( "eheap",
        [
          Alcotest.test_case "order" `Quick test_eheap_order;
          Alcotest.test_case "empty" `Quick test_eheap_empty;
          Alcotest.test_case "fifo ties" `Quick test_eheap_fifo_ties;
          Alcotest.test_case "filter_in_place" `Quick test_eheap_filter;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "golden stream" `Quick test_rng_golden;
          Alcotest.test_case "split uncorrelated" `Quick test_rng_split_uncorrelated;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "chance" `Quick test_rng_chance;
          Alcotest.test_case "zipf" `Quick test_rng_zipf;
          Alcotest.test_case "zipf golden" `Quick test_rng_zipf_golden;
          Alcotest.test_case "zipf exactness" `Quick test_rng_zipf_exactness;
          Alcotest.test_case "sample" `Quick test_rng_sample;
        ] );
      ( "engine",
        [
          Alcotest.test_case "schedule order" `Quick test_engine_schedule_order;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
          Alcotest.test_case "cancel churn" `Quick test_engine_cancel_churn;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "run until with cancelled head" `Quick
            test_engine_run_until_cancelled_head;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        ] );
      ( "process",
        [
          Alcotest.test_case "sleep" `Quick test_proc_sleep;
          Alcotest.test_case "concurrent" `Quick test_proc_concurrent;
          Alcotest.test_case "kill while sleeping" `Quick test_proc_kill_while_sleeping;
          Alcotest.test_case "kill recycled timer" `Quick test_proc_kill_recycled_timer;
          Alcotest.test_case "kill resume pending" `Quick test_proc_kill_resume_pending;
          Alcotest.test_case "sleep zero fifo" `Quick test_proc_sleep_zero_fifo;
          Alcotest.test_case "kill before start" `Quick test_proc_kill_before_start;
          Alcotest.test_case "self kill" `Quick test_proc_self_kill;
          Alcotest.test_case "exit hooks order" `Quick test_proc_exit_hooks_order;
          Alcotest.test_case "crash recorded" `Quick test_proc_crash_recorded;
          Alcotest.test_case "check crashed" `Quick test_check_crashed;
          Alcotest.test_case "resolve once" `Quick test_suspend_resolve_once;
          Alcotest.test_case "suspend error" `Quick test_suspend_error;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick test_ivar_basic;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "timeout" `Quick test_ivar_timeout;
          Alcotest.test_case "timeout beaten" `Quick test_ivar_timeout_beaten;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "buffered" `Quick test_channel_buffered;
          Alcotest.test_case "timeout skips dead receiver" `Quick test_channel_timeout_skips_dead_receiver;
          Alcotest.test_case "try_recv" `Quick test_channel_try_recv;
          Alcotest.test_case "competing receivers" `Quick test_channel_competing_receivers;
        ] );
      ("properties", qsuite);
    ]
