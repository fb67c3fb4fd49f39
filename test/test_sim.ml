(* Tests for the simulation substrate: RNG, heap, engine, ivar, channel. *)

open Splay_sim

let check_float = Alcotest.(check (float 1e-9))

(* {2 Event heap} *)

let drain_eheap h =
  let rec go acc = match Eheap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_eheap_order () =
  let h = Eheap.create ~dummy:0 in
  List.iteri (fun i x -> Eheap.push h ~at:{ Eheap.v = Float.of_int x } ~seq:i x) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check int) "size" 7 (Eheap.size h);
  check_float "min_at" 1.0 (Eheap.min_at h);
  Alcotest.(check int) "top_or" 1 (Eheap.top_or h (-1));
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain_eheap h);
  Alcotest.(check (option int)) "empty pop" None (Eheap.pop h)

let test_eheap_empty () =
  let h = Eheap.create ~dummy:0 in
  Alcotest.(check int) "size" 0 (Eheap.size h);
  Alcotest.(check bool) "min_at empty" true (Eheap.min_at h = infinity);
  Alcotest.(check int) "top_or" (-1) (Eheap.top_or h (-1));
  Eheap.push h ~at:{ Eheap.v = 1.0 } ~seq:0 1;
  Alcotest.(check (option int)) "pop" (Some 1) (Eheap.pop h);
  Alcotest.(check int) "drained" 0 (Eheap.size h);
  Alcotest.(check (option int)) "empty pop" None (Eheap.pop h)

let test_eheap_fifo_ties () =
  (* entries sharing [at] must come out in seq (= insertion) order *)
  let h = Eheap.create ~dummy:0 in
  for i = 0 to 9 do
    Eheap.push h ~at:{ Eheap.v = 1.0 } ~seq:i i
  done;
  Eheap.push h ~at:{ Eheap.v = 0.5 } ~seq:100 100;
  Alcotest.(check (list int)) "fifo among ties" (100 :: List.init 10 Fun.id) (drain_eheap h)

let test_eheap_filter () =
  let h = Eheap.create ~dummy:0 in
  (* i * 7 mod 100 is a bijection on 0..99, so every key is unique *)
  for i = 0 to 99 do
    Eheap.push h ~at:{ Eheap.v = Float.of_int (i * 7 mod 100) } ~seq:i i
  done;
  Eheap.filter_in_place h (fun x -> x mod 2 = 0);
  Alcotest.(check int) "size halved" 50 (Eheap.size h);
  let expected =
    List.init 50 (fun k -> 2 * k)
    |> List.sort (fun a b -> compare (a * 7 mod 100) (b * 7 mod 100))
  in
  Alcotest.(check (list int)) "survivors sorted" expected (drain_eheap h);
  Eheap.filter_in_place h (fun _ -> false);
  Alcotest.(check int) "filter to empty" 0 (Eheap.size h)

(* A popped or filtered-out payload must not stay reachable through the
   heap's unused slots: a queue that shrank from its high-water mark would
   otherwise keep that many dead payloads alive. *)
let test_eheap_no_retention () =
  let h = Eheap.create ~dummy:Bytes.empty in
  for i = 0 to 99 do
    Eheap.push h ~at:{ Eheap.v = Float.of_int i } ~seq:i (Bytes.create 1000)
  done;
  for _ = 1 to 99 do
    ignore (Eheap.pop h)
  done;
  (* one live payload (126 words) plus three 128-slot arrays *)
  let words = Obj.reachable_words (Obj.repr h) in
  Alcotest.(check bool) (Printf.sprintf "%d words after popping 99 of 100" words) true (words < 1000);
  let keep = Bytes.create 1000 in
  Eheap.push h ~at:{ Eheap.v = 200.0 } ~seq:200 keep;
  for i = 1 to 50 do
    Eheap.push h ~at:{ Eheap.v = 200.0 +. Float.of_int i } ~seq:(200 + i) (Bytes.create 1000)
  done;
  Eheap.filter_in_place h (fun b -> b == keep);
  let words = Obj.reachable_words (Obj.repr h) in
  Alcotest.(check bool) (Printf.sprintf "%d words after filtering 51 of 52 out" words) true (words < 1000)

let prop_eheap_sorted =
  QCheck.Test.make ~name:"event heap pops in (at, seq) order" ~count:200
    QCheck.(list (float_range 0.0 100.0))
    (fun ats ->
      let h = Eheap.create ~dummy:0 in
      List.iteri (fun i at -> Eheap.push h ~at:{ Eheap.v = at } ~seq:i i) ats;
      let keyed = List.mapi (fun i at -> (at, i)) ats in
      drain_eheap h = List.map snd (List.sort compare keyed))

(* Past one page a heap grows by pages ({!Pages}). A random run of
   pushes and interleaved pops takes the heap past four pages, then a
   filter compacts it across pages (Floyd heapify over every page); every
   pop must match a sorted model, and the drained heap holds no page. *)
module Keys = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let prop_eheap_pages =
  QCheck.Test.make ~name:"paged event heap pops in (at, seq) order" ~count:20 QCheck.int
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let h = Eheap.create ~dummy:(-1) in
      let model = ref Keys.empty and next = ref 0 and ok = ref true in
      let push_n n =
        for _ = 1 to n do
          (* few distinct instants: ties break on seq *)
          let at = Float.of_int (Random.State.int rs 500) in
          Eheap.push h ~at:{ Eheap.v = at } ~seq:!next !next;
          model := Keys.add (at, !next) !model;
          incr next
        done
      in
      let pop_n n =
        for _ = 1 to n do
          match (Eheap.pop h, Keys.min_elt_opt !model) with
          | Some x, Some ((at, seq) as k) ->
              model := Keys.remove k !model;
              if x <> seq || (Eheap.popped_cell h).Eheap.v <> at then ok := false
          | None, None -> ()
          | _ -> ok := false
        done
      in
      while Eheap.size h <= 4 * Pages.size do
        push_n (Random.State.int rs 3000);
        pop_n (Random.State.int rs 1000)
      done;
      Eheap.filter_in_place h (fun x -> x mod 3 <> 0);
      model := Keys.filter (fun (_, seq) -> seq mod 3 <> 0) !model;
      ok := !ok && Eheap.size h = Keys.cardinal !model && Eheap.size h > 2 * Pages.size;
      push_n 500;
      pop_n (Eheap.size h + 1);
      !ok && Eheap.size h = 0 && Obj.reachable_words (Obj.repr h) < 64)

(* {2 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 and twin = Rng.create 7 in
  let c = Rng.split a and c' = Rng.split twin in
  (* draws from the parent must not change the child's stream *)
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

(* [engine.event_wait] is the time an event spent queued. An event
   scheduled while tracing was off has no scheduling instant: switching
   tracing on before it fires must not record [now - 0.0], the absolute
   time, as its wait. An event scheduled traced records exactly one. *)
let test_engine_event_wait_untraced () =
  let module Obs = Splay_obs.Obs in
  let h = Obs.histogram "engine.event_wait" in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      let eng = Engine.create () in
      ignore (Engine.run ~until:50.0 eng);
      let fired = ref 0 in
      for _ = 1 to 3 do
        ignore (Engine.schedule eng ~delay:1.0 (fun () -> incr fired))
      done;
      Obs.enabled := true;
      ignore (Engine.run eng);
      Alcotest.(check int) "untraced events fired" 3 !fired;
      Alcotest.(check int) "no wait recorded for them" 0 (Obs.Rollup.count h);
      ignore (Engine.schedule eng ~delay:1.0 (fun () -> incr fired));
      ignore (Engine.run eng);
      Alcotest.(check int) "a traced event records its wait" 1 (Obs.Rollup.count h))

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
  let p = Engine.spawn e (fun () -> ran := true) in
  Engine.kill e p;
  ignore (Engine.run e);
  Alcotest.(check bool) "never ran" false !ran;
  Alcotest.(check bool) "dead" false (Engine.alive p);
  Alcotest.(check int) "not a crash" 0 (List.length (Engine.crashed e))

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
  let waker = ref None in
  let got = ref [] in
  ignore
    (Engine.spawn e (fun () ->
         let w = Engine.waker e in
         waker := Some w;
         Engine.timeout w 5.0;
         let v = Engine.await w in
         got := v :: !got;
         (* settled while being registered, before the process parks: the
            resume is already queued when [await] stores the continuation *)
         let w = Engine.waker e in
         Engine.wake w 3;
         got := Engine.await w :: !got));
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         match !waker with
         | Some w ->
             Alcotest.(check bool) "pending before" true (Engine.pending w);
             Engine.wake w 1;
             Engine.wake w 2;
             Alcotest.(check bool) "settled after" false (Engine.pending w)
         | None -> Alcotest.fail "no waker"));
  ignore (Engine.run e);
  Alcotest.(check (list int)) "only first wake" [ 3; 1 ] !got;
  check_float "timer cancelled by the wake" 1.0 (Engine.now e)

let test_suspend_error () =
  let e = Engine.create () in
  let caught = ref false in
  ignore
    (Engine.spawn e (fun () ->
         let w = Engine.waker e in
         Engine.timeout w 2.0;
         try ignore (Engine.await w) with Engine.Timed_out -> caught := true));
  ignore (Engine.run e);
  Alcotest.(check bool) "timeout raised in the process" true !caught;
  check_float "at the deadline" 2.0 (Engine.now e);
  Alcotest.check_raises "waker outside a process"
    (Invalid_argument "Engine.waker: not inside a process of this engine") (fun () ->
      ignore (Engine.waker e))

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

let test_ivar_kill_while_parked () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let pending_after_kill = ref (-1) and late = ref 0 in
  Support.killed_while_parked e
    ~wait:(fun () -> ignore (Ivar.read_timeout iv 10.0))
    ~after_kill:(fun () ->
      (* the 10 s timer went with the wait *)
      pending_after_kill := Engine.pending_events e;
      Ivar.fill iv 1;
      ignore (Engine.spawn e (fun () -> late := Ivar.read iv)));
  Alcotest.(check int) "timer cancelled at the kill" 0 !pending_after_kill;
  Alcotest.(check int) "a later reader sees the value" 1 !late;
  check_float "ended at the fill, not the timeout" 1.5 (Engine.now e)

let test_channel_kill_while_parked () =
  let e = Engine.create () in
  let c = Channel.create () in
  let pending_after_kill = ref (-1) in
  Support.killed_while_parked e
    ~wait:(fun () -> ignore (Channel.recv_timeout c 10.0))
    ~after_kill:(fun () ->
      pending_after_kill := Engine.pending_events e;
      (* the dead receiver is skipped: the message stays queued *)
      Channel.send c 7);
  Alcotest.(check int) "timer cancelled at the kill" 0 !pending_after_kill;
  Alcotest.(check int) "message not lost" 1 (Channel.length c);
  Alcotest.(check (option int)) "still there" (Some 7) (Channel.try_recv c)

(* A receiver killed in the same event as the send that reaches it is
   still pending (its kill event has yet to run): the send must pass it
   over rather than hand the message to a dead process. *)
let test_channel_kill_and_send_same_event () =
  let e = Engine.create () in
  let c = Channel.create () in
  let got = ref None in
  let p = Engine.spawn e (fun () -> got := Some (Channel.recv c)) in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         Engine.kill e p;
         Channel.send c 7));
  ignore (Engine.run e);
  Alcotest.(check (option int)) "the dead receiver got nothing" None !got;
  Alcotest.(check (option int)) "try_recv finds the message" (Some 7) (Channel.try_recv c)

(* The other order: the send hands the message to the parked receiver
   and a kill reaches that receiver in the same event, before it
   resumes. The message goes to the next live receiver, or back to the
   head of the queue, ahead of anything sent since. *)
let test_channel_send_then_kill_same_event () =
  let e = Engine.create () in
  let c = Channel.create () in
  let got = ref None in
  let p = Engine.spawn e (fun () -> got := Some (Channel.recv c)) in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         Channel.send c 7;
         Channel.send c 8;
         Engine.kill e p));
  ignore (Engine.run e);
  Alcotest.(check (option int)) "the dead receiver got nothing" None !got;
  Alcotest.(check (option int)) "try_recv finds the message first" (Some 7) (Channel.try_recv c);
  Alcotest.(check (option int)) "then the later one" (Some 8) (Channel.try_recv c);
  (* with a second receiver parked, the message reaches it *)
  let c = Channel.create () in
  let got = ref None in
  let p = Engine.spawn e (fun () -> ignore (Channel.recv c)) in
  ignore (Engine.spawn e (fun () -> got := Some (Channel.recv c)));
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         Channel.send c 7;
         Engine.kill e p));
  ignore (Engine.run e);
  Alcotest.(check (option int)) "the next receiver got it" (Some 7) !got;
  Alcotest.(check int) "nothing left queued" 0 (Channel.length c)

(* A waiter that timed out stays reachable only until the next
   compaction, not until the next fill or send: 10k timed-out waits, one
   after the other and then 1000 at once, leave a few dozen words. *)
let test_timed_out_waiters_dropped () =
  let n = 10_000 in
  let e = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  let c : int Channel.t = Channel.create () in
  (* words reachable only through the Ivar and the channel: the engine's
     own queues grow with the 1000 concurrent timers and stay grown *)
  let held () = Obj.reachable_words (Obj.repr (e, iv, c)) - Obj.reachable_words (Obj.repr e) in
  let base = held () in
  ignore
    (Engine.spawn e (fun () ->
         for _ = 1 to n do
           ignore (Ivar.read_timeout iv 0.001);
           ignore (Channel.recv_timeout c 0.001)
         done));
  for _ = 1 to 1000 do
    ignore
      (Engine.spawn e (fun () ->
           ignore (Ivar.read_timeout iv 1.0);
           ignore (Channel.recv_timeout c 1.0)))
  done;
  ignore (Engine.run e);
  let grown = held () - base in
  Alcotest.(check bool) "both still empty" true ((not (Ivar.is_filled iv)) && Channel.length c = 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d words left by %d timed-out waits (bound 500)" grown (2 * (n + 1000)))
    true (grown < 500)

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

(* {2 Message slots merge into the event order}

   A random program of closures, message slots, cancels, sleeps and
   cancel bursts runs on two engines with the same seed: one posts each
   message as a slot ({!Engine.post}), its twin schedules the same
   delivery as a closure at the same instant. The slot engine must be
   indistinguishable from the single-queue one after every step: same
   fire order, clock, [events_fired], [max_queue_depth] (the compaction
   instants included) and [pending_events], with and without schedule
   perturbation. Delay 0 posts a slot due exactly at [now], ordered
   against the same-instant ring by seq. A wave posts more messages than
   one page holds, so the message queue and its twin's heap grow by
   pages. *)

type mop =
  | M_ev of int * mop list (* a closure after [delays.(i)] *)
  | M_msg of int * mop list (* a message due after [delays.(i)] *)
  | M_nap of int * mop list (* a process that sleeps [delays.(i)] first *)
  | M_cancel of int (* cancel an earlier closure, counted back from the newest *)
  | M_burst (* queue 70 far-off closures and cancel them: compaction *)
  | M_wave of int (* one page plus 8 messages after [delays.(i)] *)

let m_delays = [| 0.0; 0.0; 0.5; 1.0; 1.0; 2.5 |]

let rec mop_to_string = function
  | M_ev (d, l) -> Printf.sprintf "ev%d%s" d (mops_to_string l)
  | M_msg (d, l) -> Printf.sprintf "msg%d%s" d (mops_to_string l)
  | M_nap (d, l) -> Printf.sprintf "nap%d%s" d (mops_to_string l)
  | M_cancel k -> Printf.sprintf "cancel%d" k
  | M_burst -> "burst"
  | M_wave d -> Printf.sprintf "wave%d" d

and mops_to_string = function
  | [] -> ""
  | l -> "[" ^ String.concat ";" (List.map mop_to_string l) ^ "]"

let gen_mops =
  let open QCheck.Gen in
  let d = int_bound (Array.length m_delays - 1) in
  sized_size (int_bound 40)
  @@ fix (fun self n ->
         let kids = if n <= 1 then return [] else frequency [ (1, return []); (2, self (n / 3)) ] in
         list_size (int_range 1 5)
           (frequency
              [
                (6, map2 (fun d l -> M_ev (d, l)) d kids);
                (8, map2 (fun d l -> M_msg (d, l)) d kids);
                (4, map2 (fun d l -> M_nap (d, l)) d kids);
                (4, map (fun k -> M_cancel k) (int_bound 4));
                (2, return M_burst);
                (1, map (fun d -> M_wave d) d);
              ]))

(* Run [prog] on a fresh engine; [slots] picks real posts over closures.
   Returns the engine and the fire log, newest first. *)
let mop_engine ~slots ~perturb prog =
  let e = Engine.create ~seed:5 () in
  if perturb then Engine.set_perturbation ~max_extra_delay:0.25 e;
  let log = ref [] and next_label = ref 0 and handles = ref [] in
  let actions = ref [||] and n_actions = ref 0 in
  if slots then Engine.set_consumer e (fun id -> !actions.(id) ());
  let post at f =
    if slots then begin
      let id = !n_actions in
      if id = Array.length !actions then begin
        let grown = Array.make (max 16 (2 * id)) ignore in
        Array.blit !actions 0 grown 0 id;
        actions := grown
      end;
      !actions.(id) <- f;
      incr n_actions;
      Engine.post e ~at id
    end
    else ignore (Engine.schedule_at e ~at f)
  in
  let rec exec ops = List.iter run ops
  and fired kids =
    let label = !next_label in
    incr next_label;
    fun () ->
      log := (label, Engine.now e) :: !log;
      exec kids
  and run = function
    | M_ev (d, kids) -> handles := Engine.schedule e ~delay:m_delays.(d) (fired kids) :: !handles
    | M_msg (d, kids) ->
        post { Engine.v = Engine.now e +. m_delays.(d) } (fired kids)
    | M_nap (d, kids) ->
        let f = fired kids in
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep m_delays.(d);
               f ()))
    | M_cancel k -> (
        match List.nth_opt !handles k with Some h -> Engine.cancel e h | None -> ())
    | M_burst ->
        let burst = List.init 70 (fun _ -> Engine.schedule e ~delay:40.0 ignore) in
        List.iter (Engine.cancel e) burst
    | M_wave d ->
        let at = { Engine.v = Engine.now e +. m_delays.(d) } in
        for _ = 1 to Pages.size + 8 do
          post at (fired [])
        done
  in
  exec prog;
  (e, log)

let prop_slots_merge_like_events =
  QCheck.Test.make ~name:"message slots fire like scheduled closures" ~count:300
    (QCheck.make
       ~print:(fun (perturb, prog) -> Printf.sprintf "perturb=%b %s" perturb (mops_to_string prog))
       QCheck.Gen.(pair bool gen_mops))
    (fun (perturb, prog) ->
      let a, la = mop_engine ~slots:true ~perturb prog in
      let b, lb = mop_engine ~slots:false ~perturb prog in
      (* a step fires one entry, which logs at most once under a label
         no other entry has: comparing the newest entries after every
         step, and the whole logs at the end, is the whole-log comparison
         without its quadratic cost over a wave *)
      let same () =
        let sa = Engine.stats a and sb = Engine.stats b in
        (match (!la, !lb) with x :: _, y :: _ -> x = y | [], [] -> true | _ -> false)
        && sa = sb
        && Engine.pending_events a = Engine.pending_events b
      in
      (* alternate plain steps with [next_at], which drains tombstones
         off the global head and must stop at a slot that precedes one *)
      let rec go i =
        if not (same ()) then false
        else if i mod 3 = 2 && Engine.next_at a <> Engine.next_at b then false
        else
          let ra = Engine.step a and rb = Engine.step b in
          if ra <> rb then false else if ra then go (i + 1) else same () && !la = !lb
      in
      go 0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eheap_sorted;
      prop_eheap_pages;
      prop_pareto_support;
      prop_schedule_cancel_accounting;
      prop_slots_merge_like_events;
    ]

let () =
  Alcotest.run "splay_sim"
    [
      ( "eheap",
        [
          Alcotest.test_case "order" `Quick test_eheap_order;
          Alcotest.test_case "empty" `Quick test_eheap_empty;
          Alcotest.test_case "fifo ties" `Quick test_eheap_fifo_ties;
          Alcotest.test_case "filter_in_place" `Quick test_eheap_filter;
          Alcotest.test_case "no retention" `Quick test_eheap_no_retention;
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
          Alcotest.test_case "event wait only when traced" `Quick test_engine_event_wait_untraced;
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
          Alcotest.test_case "kill while parked" `Quick test_ivar_kill_while_parked;
          Alcotest.test_case "timed-out waiters dropped" `Quick test_timed_out_waiters_dropped;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "buffered" `Quick test_channel_buffered;
          Alcotest.test_case "timeout skips dead receiver" `Quick test_channel_timeout_skips_dead_receiver;
          Alcotest.test_case "try_recv" `Quick test_channel_try_recv;
          Alcotest.test_case "competing receivers" `Quick test_channel_competing_receivers;
          Alcotest.test_case "kill while parked" `Quick test_channel_kill_while_parked;
          Alcotest.test_case "kill and send in one event" `Quick
            test_channel_kill_and_send_same_event;
          Alcotest.test_case "send and kill in one event" `Quick
            test_channel_send_then_kill_same_event;
        ] );
      ("properties", qsuite);
    ]
