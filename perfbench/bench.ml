(* The experiment-cost benchmark.

     bench.exe --workload flood|serve|churn --seed N --seconds S --trace 0|1

   Repeats the workload, each repetition a fresh deployment built from
   the seed, while one more repetition is expected to end within S host
   seconds (at least once), checks
   every repetition's outputs, and prints each metric by name with its
   unit — as a median with quartiles and run count — followed by one JSON
   line. With --trace 0 the JSON carries the end-to-end metrics; with
   --trace 1 one more, traced repetition follows and the JSON carries
   the per-layer metrics; on flood the traced run also times the flood
   over 2 Fabric partitions, on 2 worker domains and on 1, for the
   parallel engine's metrics. Exits 1 when a correctness check fails. See
   README.md beside this file for the definitions. *)

open Perfbench

let workloads = [ "flood"; "serve"; "churn" ]

let par_domains = 2

let run_once workload ~seed =
  match workload with
  | "flood" -> Flood.run ~mode:Flood.Seq ~seed ()
  | "serve" -> Serve.run ~seed
  | "churn" -> Churn.run ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

(* Each repetition runs in a forked child, so every one starts from a
   fresh heap: repetitions are alike, and the heap high-water mark is the
   repetition's own. The parent never runs a workload itself, so it has
   no domain but its own when it forks. *)
type outcome = Done of Phase.iteration * float (* peak heap MB *) | Raised of string

let in_child f =
  flush stdout;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let res = try f () with e -> Raised (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc res [];
      close_out oc;
      exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      match (res, snd (Unix.waitpid [] pid)) with
      | Some r, _ -> r
      | None, Unix.WEXITED c -> Raised (Printf.sprintf "nothing (its process exited with %d)" c)
      | None, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Raised (Printf.sprintf "nothing (its process got signal %d)" n)

let fail ~attempted msgs =
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) msgs;
  Printf.printf "{\"correct\": false, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n"
    (max 1 attempted) (List.length msgs);
  exit 1

(* One repetition; a failed check ends the whole run. With [spans], the
   repetition is traced and writes its spans there. *)
let repetition ~label ?spans run =
  let outcome =
    in_child (fun () ->
        Measure.tracing := spans <> None;
        let it = run () in
        Option.iter Measure.write_spans spans;
        Done (it, Float.of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6))
  in
  match outcome with
  | Raised e -> fail ~attempted:1 [ label ^ " raised " ^ e ]
  | Done (it, peak_mb) ->
      Printf.printf "  %s: setup %.3f s, run %.3f s, %d ops, %d ok, peak heap %.1f MB\n%!" label
        it.Phase.setup_s it.Phase.wall_s it.Phase.attempted it.Phase.ok peak_mb;
      if it.Phase.errors <> [] then fail ~attempted:it.Phase.attempted it.Phase.errors;
      (it, peak_mb)

let cores () = Domain.recommended_domain_count ()

let machine () =
  Printf.printf "machine: nproc=%d dpool_workers(%d)=%d ocaml=%s OCAMLRUNPARAM=%s\n" (cores ())
    par_domains
    (Splay.Dpool.effective par_domains)
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"")

let summary name unit values =
  let q = Measure.quantile values in
  Printf.printf "  %-24s median %.6g %s  [q1 %.6g, q3 %.6g]  (%d runs)\n" name (q 0.5) unit
    (q 0.25) (q 0.75) (List.length values)

let json_line ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed m

let main workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of: %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  machine ();
  (* start a repetition only when one as long as the median so far ends
     less than half its length past the deadline, so a run lasts about
     [seconds] whatever the workload *)
  let t_end = Measure.now () +. seconds in
  let rec loop i acc took =
    let t0 = Measure.now () in
    let r = repetition ~label:(Printf.sprintf "rep %d" i) (fun () -> run_once workload ~seed) in
    let took = (Measure.now () -. t0) :: took in
    if Measure.now () +. (0.5 *. Measure.median took) < t_end then loop (i + 1) (r :: acc) took
    else List.rev (r :: acc)
  in
  let runs = loop 1 [] [] in
  let reps = List.map fst runs in
  let peak_mb = Measure.median (List.map snd runs) in
  let first = List.hd reps in
  let wall = List.map (fun it -> it.Phase.wall_s) reps in
  let attempted = List.fold_left (fun a it -> a + it.Phase.attempted) 0 reps in
  let fail_frac = 1.0 -. (Float.of_int first.Phase.ok /. Float.of_int first.Phase.attempted) in
  Printf.printf "end to end (%s, seed %d):\n" workload seed;
  summary "wall_s" "s" wall;
  summary "setup_s" "s" (List.map (fun it -> it.Phase.setup_s) reps);
  summary "peak_heap_mb" "MB" (List.map snd runs);
  Printf.printf "  %-24s %.6g (fail_frac %.6g: %d of %d failed in the model)\n" "ok_frac"
    (1.0 -. fail_frac) fail_frac
    (first.Phase.attempted - first.Phase.ok)
    first.Phase.attempted;
  Printf.printf "  %-24s %.6g s (%d samples, %d kept)\n" "sim_p50_s" first.Phase.p50 first.Phase.lat_n
    first.Phase.lat_kept;
  Printf.printf "  %-24s %.6g s (%d samples, %d kept, %.0f kept beyond it)\n" "sim_p99_s"
    first.Phase.p99 first.Phase.lat_n first.Phase.lat_kept
    (0.01 *. Float.of_int first.Phase.lat_kept);
  (* simulated results are a function of the seed: every repetition must
     agree exactly *)
  List.iter
    (fun it ->
      if it.Phase.p50 <> first.Phase.p50 || it.Phase.p99 <> first.Phase.p99 || it.Phase.ok <> first.Phase.ok
      then begin
        Printf.printf "  CHECK FAILED: repetitions of one seed disagree on simulated results\n";
        exit 1
      end)
    reps;
  if not trace then
    let values =
      [
        ("wall_s", Measure.median wall);
        ("setup_s", Measure.median (List.map (fun it -> it.Phase.setup_s) reps));
        ("peak_heap_mb", peak_mb);
        ("ok_frac", 1.0 -. fail_frac);
        ("sim_p50_s", first.Phase.p50);
        ("sim_p99_s", first.Phase.p99);
      ]
    in
    json_line ~attempted ~failed:0
      (List.map (fun (name, unit) -> (name, unit, List.assoc name values)) Phase.end_to_end)
  else begin
    (* the parallel engine on flood's inputs: 2 partitions on 2 domains,
       and the twin on 1 domain, against the sequential median *)
    let par =
      if workload <> "flood" then []
      else
        let par_rep domains =
          fst
            (repetition ~label:(Printf.sprintf "flood, 2 partitions on %d domain(s)" domains) (fun () ->
                 Flood.run ~mode:(Flood.Par { parts = 2; domains }) ~seed ()))
        in
        let p = par_rep par_domains in
        let twin = par_rep 1 in
        (* results are a function of (seed, parts), not of the domains *)
        if p.Phase.p50 <> twin.Phase.p50 || p.Phase.p99 <> twin.Phase.p99 || p.Phase.ok <> twin.Phase.ok
        then fail ~attempted:p.Phase.attempted [ "2 partitions on 2 and on 1 domain disagree on simulated results" ];
        let seq = Measure.median wall in
        [
          ("par.windows", List.assoc "par.windows" p.Phase.layers);
          ("par.workers", List.assoc "par.workers" p.Phase.layers);
          ("par.speedup_x", seq /. p.Phase.wall_s);
          ("par.partition_cost_x", twin.Phase.wall_s /. seq);
        ]
    in
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/%s-seed%d.spans.jsonl" workload seed in
    let traced, _ = repetition ~label:"traced" ~spans:path (fun () -> run_once workload ~seed) in
    let overhead = (traced.Phase.wall_s /. Measure.median wall) -. 1.0 in
    Printf.printf "  spans written to %s; tracing overhead %+.1f%% of the untraced median\n" path
      (100.0 *. overhead);
    if workload = "serve" then
      Printf.printf "  load.lateness_s is 0 by construction: the generator's arrivals fire at their \
                     scheduled virtual instants\n";
    (* the parallel runs give the par.* metrics; a metric every untraced
       repetition has is their median (host times among them); the rest
       come from the traced repetition; a layer that does no work on
       this workload reads 0 *)
    let extra = [ ("trace.overhead_frac", overhead); ("machine.cores", Float.of_int (cores ())) ] in
    let value name =
      match (List.assoc_opt name par, List.filter_map (fun it -> List.assoc_opt name it.Phase.layers) reps) with
      | Some v, _ -> v
      | None, (_ :: _ as vs) -> Measure.median vs
      | None, [] -> Option.value (List.assoc_opt name (extra @ traced.Phase.layers)) ~default:0.0
    in
    let metrics = List.map (fun (name, unit) -> (name, unit, value name)) Phase.per_layer in
    Printf.printf "per layer (%s, seed %d):\n" workload seed;
    List.iter (fun (name, unit, v) -> Printf.printf "  %-26s %.6g %s\n" name v unit) metrics;
    json_line ~attempted:(attempted + traced.Phase.attempted) ~failed:0 metrics
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flood | serve | churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to keep repeating");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  main !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
