(* Tests for the simulation-testing layer: schedule perturbation, the
   nemesis DSL, invariant registries, and the sweep runner. *)

open Support
module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Nemesis = Splay_check.Nemesis
module Invariant = Splay_check.Invariant
module Suite = Splay_check.Suite
module Runner = Splay_check.Runner

(* {2 Schedule perturbation} *)

(* Ten procs wake at the same instant; the firing order is the engine's
   tie-break. *)
let tie_order ~seed ~perturb =
  let e = Engine.create ~seed () in
  if perturb then Engine.set_perturbation ~tie_shuffle:true e;
  let log = ref [] in
  for i = 0 to 9 do
    ignore
      (Engine.spawn e (fun () ->
           Engine.sleep 1.0;
           log := i :: !log))
  done;
  ignore (Engine.run e);
  List.rev !log

let test_perturb_off_is_fifo () =
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) (tie_order ~seed:5 ~perturb:false)

let test_perturb_changes_order () =
  Alcotest.(check bool)
    "shuffled" true
    (tie_order ~seed:5 ~perturb:true <> List.init 10 Fun.id)

let test_perturb_deterministic () =
  Alcotest.(check (list int))
    "same seed, same schedule"
    (tie_order ~seed:5 ~perturb:true)
    (tie_order ~seed:5 ~perturb:true);
  Alcotest.(check bool)
    "different seed, different schedule" true
    (tie_order ~seed:5 ~perturb:true <> tie_order ~seed:6 ~perturb:true)

(* {2 Nemesis DSL} *)

let test_nemesis_roundtrip () =
  let cases =
    [
      "crash 2 @ 30";
      "stop 1 @ 12.5";
      "restart 1 @ 90";
      "join 3 @ 60";
      "partition 2 @ 40 to 90";
      "drop 0.3 @ 40 to 90";
      "slow 0.5 @ 10 to 20";
      "squeeze 2 x 4096 @ 50";
      "down 2 @ 40 to 90";
      "crash 1 @ 5; join 1 @ 60; slow 0.25 @ 40 to 70";
    ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Nemesis.to_string (Nemesis.parse s)))
    cases

let test_nemesis_churn_roundtrip () =
  let s = "crash 1 @ 5; churn{at 10s leave 25%} @ 30" in
  let t = Nemesis.parse s in
  (* parse . to_string is a fixpoint even when a churn script rides along *)
  Alcotest.(check string) "fixpoint" (Nemesis.to_string t)
    (Nemesis.to_string (Nemesis.parse (Nemesis.to_string t)))

let test_nemesis_parse_errors () =
  let bad = [ "crash"; "crash two @ 5"; "frobnicate 1 @ 2" ] in
  List.iter
    (fun s ->
      match try Ok (Nemesis.parse s) with e -> Error e with
      | Ok _ -> Alcotest.failf "%S parsed" s
      | Error (Nemesis.Parse_error _) -> ()
      | Error e -> Alcotest.failf "%S raised %s, not Parse_error" s (Printexc.to_string e))
    bad

let test_nemesis_duration () =
  let t = Nemesis.parse "crash 1 @ 5; drop 0.3 @ 40 to 90" in
  Alcotest.(check (float 1e-9)) "heal included" 90.0 (Nemesis.duration t)

let test_nemesis_shrink () =
  let t = Nemesis.parse "crash 2 @ 5; drop 0.4 @ 40 to 90" in
  let cands = Nemesis.shrink_candidates t in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  (* removals come first: dropping either op is offered before weakenings *)
  Alcotest.(check bool) "first removes an op" true (List.length (List.hd cands) = 1);
  List.iter
    (fun c ->
      let smaller =
        List.length c < List.length t
        || Nemesis.duration c < Nemesis.duration t
        || Nemesis.to_string c <> Nemesis.to_string t
      in
      Alcotest.(check bool) "strictly simpler" true smaller)
    cands;
  Alcotest.(check bool) "empty shrinks to nothing" true (Nemesis.shrink_candidates [] = [])

(* [down] takes hosts that run instances down for its window, and the
   controller's live view follows: instances there stop counting as
   live until the heal brings their hosts back. *)
let test_nemesis_down () =
  let module Platform = Splay_ctl.Platform in
  let module Controller = Splay_ctl.Controller in
  let module Descriptor = Splay_ctl.Descriptor in
  let module Daemon = Splay_ctl.Daemon in
  let module Env = Splay_runtime.Env in
  Platform.run ~until:500.0 (Platform.create ~seed:3 (Platform.Cluster 6)) (fun p ->
      let ctl = Platform.controller p in
      let dep = Controller.deploy ctl ~name:"idle" ~main:(fun _ -> ()) (Descriptor.make 6) in
      let hosts = List.sort_uniq compare (List.map (fun (d, _, _) -> Daemon.host d) (Controller.members dep)) in
      let down () = List.filter (fun h -> not (Splay_net.Net.host_up (Platform.net p) h)) hosts in
      ignore
        (Env.thread (Controller.env ctl) (fun () ->
             Nemesis.run ~rng:(Rng.create 1) ~dep (Nemesis.parse "down 2 @ 10 to 30")));
      Env.sleep 20.0;
      Alcotest.(check int) "two member hosts down in the window" 2 (List.length (down ()));
      Alcotest.(check bool) "their instances are not live" true (Controller.live_count dep < 6);
      Env.sleep 20.0;
      Alcotest.(check int) "all up after the heal" 0 (List.length (down ()));
      Alcotest.(check int) "every instance live again" 6 (Controller.live_count dep))

(* {2 Invariant registry} *)

let test_invariant_phases () =
  let t = Invariant.create () in
  Invariant.register t ~phase:Invariant.Checkpoint "safety" (fun () -> Error "always");
  Invariant.register t "convergence" (fun () -> Error "later");
  let names vs = List.map (fun v -> v.Invariant.v_name) vs in
  Alcotest.(check (list string))
    "checkpoint runs safety only" [ "safety" ]
    (names (Invariant.eval t ~at:1.0 Invariant.Checkpoint));
  Alcotest.(check (list string))
    "quiescence runs everything" [ "safety"; "convergence" ]
    (names (Invariant.eval t ~at:2.0 Invariant.Quiescence))

let test_invariant_raising_oracle () =
  let t = Invariant.create () in
  Invariant.register t "boom" (fun () -> failwith "kaput");
  match Invariant.eval t ~at:3.0 Invariant.Quiescence with
  | [ v ] ->
      Alcotest.(check string) "name" "boom" v.Invariant.v_name;
      Alcotest.(check bool) "reason mentions raise" true
        (String.length v.Invariant.v_reason > 0)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* {2 Runner} *)

let find_suite name =
  match Suite.find name with
  | Ok [ s ] -> s
  | Ok _ | Error _ -> Alcotest.failf "suite %s not found" name

(* The pinned bug: base Chord (no fault tolerance) loses its ring under a
   single crash, and the fault-tolerant variant survives the exact same
   fault schedule. This is the repo's standing demo of [splay check]; if
   either side flips, the README walkthrough is stale. *)
let pinned_nemesis = Nemesis.parse "crash 1 @ 20.5959"

let test_pinned_chord_bug () =
  let chord = find_suite "chord" in
  let o = Runner.run_one ~suite:chord ~seed:1 ~nemesis:pinned_nemesis ~perturb:true () in
  Alcotest.(check bool) "base chord fails" true (Suite.failed o);
  Alcotest.(check bool) "violations, not crashes" true (o.Suite.o_crashes = []);
  let names =
    List.map (fun v -> v.Invariant.v_name) o.Suite.o_violations |> List.sort_uniq compare
  in
  Alcotest.(check bool) "ring oracle fired" true
    (List.mem "ring.successor-agreement" names)

let test_pinned_chord_ft_survives () =
  let ft = find_suite "chord-ft" in
  let o = Runner.run_one ~suite:ft ~seed:1 ~nemesis:pinned_nemesis ~perturb:true () in
  Alcotest.(check bool) "ft chord passes" false (Suite.failed o)

(* A host that goes down takes its instances off the network: each of
   them suspects every peer it calls. A chord-ft node keeps its last
   successor and re-joins through its rendezvous, so the ring is whole
   again once the host is back. *)
let test_chord_ft_host_down () =
  let ft = find_suite "chord-ft" in
  List.iter
    (fun (seed, nemesis) ->
      let o = Runner.run_one ~suite:ft ~seed ~nemesis:(Nemesis.parse nemesis) ~perturb:true () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d, %s" seed nemesis)
        "" (if Suite.failed o then Suite.outcome_to_string o else ""))
    [
      (1, "down 1 @ 10 to 40");
      (1, "down 2 @ 10 to 40");
      (2, "down 2 @ 10 to 40");
      (3, "down 2 @ 10 to 40");
      (4, "down 2 @ 10 to 40");
      (5, "down 2 @ 10 to 40");
    ]

let test_replay_determinism () =
  let chord = find_suite "chord" in
  let run () = Runner.run_one ~suite:chord ~seed:1 ~nemesis:pinned_nemesis ~perturb:true () in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcome" (Suite.outcome_to_string a)
    (Suite.outcome_to_string b)

let test_nemesis_for_is_pure () =
  let chord = find_suite "chord" in
  let nemesis seed =
    Nemesis.to_string (Runner.run_one ~suite:chord ~seed ~perturb:true ()).Suite.o_nemesis
  in
  Alcotest.(check string) "same (suite, seed), same nemesis" (nemesis 3) (nemesis 3);
  Alcotest.(check bool) "seeds differ" true (nemesis 3 <> nemesis 4)

(* The sweep contract: --jobs changes wall-clock time only. The same
   suites and seeds must report the same failing sets at any [jobs]. *)
let test_sweep_jobs_independent () =
  let suites = [ find_suite "chord" ] in
  let failing jobs =
    let rep = Runner.sweep ~suites ~seeds:2 ~jobs ~shrink_failures:false () in
    List.map (fun r -> (r.Runner.r_suite, r.Runner.r_failing)) rep.Runner.rep_suites
  in
  let seq = failing 1 in
  Alcotest.(check bool) "chord fails in the sweep" true
    (List.exists (fun (_, f) -> f <> []) seq);
  Alcotest.(check (list (pair string (list int)))) "jobs=2 identical" seq (failing 2)

(* Shrinking and the replay line, through the sweep that runs them: the
   failing seed's nemesis is shrunk to a shorter one that still fails,
   and the replay line names suite, seed and nemesis. *)
let chord_failure =
  (* seed 3's generated schedule fails with an op the bug does not need *)
  lazy
    (match (Runner.sweep ~suites:[ find_suite "chord" ] ~seeds:1 ~base_seed:3 ()).Runner.rep_failures with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected one failing suite, got %d" (List.length fs))

let test_shrink_minimizes () =
  let f = Lazy.force chord_failure in
  Alcotest.(check bool) "found failing" true (Suite.failed f.Runner.f_outcome);
  Alcotest.(check bool) "still fails" true (Suite.failed f.Runner.f_shrunk);
  Alcotest.(check bool) "made progress" true (f.Runner.f_shrink_steps >= 1);
  Alcotest.(check bool) "dropped an op" true
    (List.length f.Runner.f_shrunk.Suite.o_nemesis < List.length f.Runner.f_outcome.Suite.o_nemesis)

let test_replay_command_quotes () =
  let f = Lazy.force chord_failure in
  let cmd = f.Runner.f_replay in
  Alcotest.(check bool) "mentions suite, seed and nemesis" true
    (contains cmd "--suite chord"
    && contains cmd (Printf.sprintf "--seed %d" f.Runner.f_seed)
    && contains cmd "--nemesis")

let () =
  Alcotest.run "check"
    [
      ( "perturbation",
        [
          Alcotest.test_case "off is fifo" `Quick test_perturb_off_is_fifo;
          Alcotest.test_case "on changes order" `Quick test_perturb_changes_order;
          Alcotest.test_case "deterministic per seed" `Quick test_perturb_deterministic;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "roundtrip" `Quick test_nemesis_roundtrip;
          Alcotest.test_case "churn roundtrip" `Quick test_nemesis_churn_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_nemesis_parse_errors;
          Alcotest.test_case "duration" `Quick test_nemesis_duration;
          Alcotest.test_case "shrink candidates" `Quick test_nemesis_shrink;
          Alcotest.test_case "down" `Quick test_nemesis_down;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "phases" `Quick test_invariant_phases;
          Alcotest.test_case "raising oracle" `Quick test_invariant_raising_oracle;
        ] );
      ( "runner",
        [
          Alcotest.test_case "pinned chord bug" `Quick test_pinned_chord_bug;
          Alcotest.test_case "pinned chord-ft survives" `Quick test_pinned_chord_ft_survives;
          Alcotest.test_case "chord-ft heals after host down" `Quick test_chord_ft_host_down;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "nemesis_for pure" `Quick test_nemesis_for_is_pure;
          Alcotest.test_case "sweep jobs-independent" `Quick test_sweep_jobs_independent;
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "replay command" `Quick test_replay_command_quotes;
        ] );
    ]
