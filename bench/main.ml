(* The benchmark harness: one entry per table/figure of the paper's
   evaluation (Section 5), plus ablations and framework microbenchmarks.

     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- fig6a fig13  # a subset
     dune exec bench/main.exe -- --full       # paper-scale populations
     dune exec bench/main.exe -- --list

   Quick scale preserves every figure's *shape* (who wins, by how much,
   where the knees are) with smaller populations so the suite runs in
   minutes; --full uses the paper's sizes. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("tab-loc", "Sec 5.1  development complexity (LoC table)", Tab_loc.run);
    ("fig3", "Fig 3    controller-to-PlanetLab RTT distribution", Fig3.run);
    ("fig4", "Fig 4    synthetic churn description", Fig4.run);
    ("fig6a", "Fig 6ab  Chord on ModelNet (routes + delays)", Fig6.run_modelnet);
    ("fig6c", "Fig 6c   Chord vs MIT Chord on PlanetLab", Fig6.run_planetlab);
    ("fig7a", "Fig 7a   Pastry vs FreePastry delay CDF", Fig7.run_a);
    ("fig7b", "Fig 7b   FreePastry delays vs density", Fig7.run_b);
    ("fig7c", "Fig 7c   SPLAY Pastry delays vs density", Fig7.run_c);
    ("fig8", "Fig 8    memory and load per instance", Fig8.run);
    ("fig9", "Fig 9    mixed PlanetLab+ModelNet deployment", Fig9.run);
    ("fig10", "Fig 10   massive failure and recovery", Fig10.run);
    ("fig11", "Fig 11   Overnet trace churn x2/x5/x10", Fig11.run);
    ("fig12", "Fig 12   deployment time vs superset", Fig12.run);
    ("fig13", "Fig 13   tree dissemination vs native CRCP", Fig13.run);
    ("fig14", "Fig 14   cooperative web cache over time", Fig14.run);
    ("abl", "Ablations superset / leafset / proximity / stagger / vivaldi", Ablations.run);
    ("micro", "Micro    framework hot paths (Bechamel)", Micro.run);
    ("macro", "Macro    message-plane workloads (Chord, epidemic, RPC)", Macro.run);
    ("scale", "Scale    single-run node-count curve (epidemic flood, Chord lookups)", Scale.run);
    ("serve", "Serve    open-loop serving fast path (offered-load sweep, Dht/Web)", Serve.run);
  ]

let aliases = [ ("fig6b", "fig6a"); ("fig6", "fig6a"); ("fig7", "fig7a"); ("loc", "tab-loc") ]

let list_experiments () =
  print_endline "available experiments:";
  List.iter (fun (id, descr, _) -> Printf.printf "  %-8s %s\n" id descr) experiments

let jobs_of_string ctx s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ ->
      Printf.eprintf "%s expects a positive integer, got %S\n" ctx s;
      exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let listing = List.mem "--list" args in
  let value_of ~pfx a =
    let lp = String.length pfx in
    if String.length a >= lp && String.sub a 0 lp = pfx then
      Some (String.sub a lp (String.length a - lp))
    else None
  in
  (* --jobs N / --jobs=N: trial fan-out width for the experiments;
     --domains N / --domains=N: partitions of the parallel single runs;
     --bench-out=PATH and the other output flags: where each section
     writes its machine-readable baseline. A bare or empty output flag
     is an error — silently falling through to the committed default path
     would overwrite the baseline the caller meant to redirect. *)
  let out_path flag v =
    match v with
    | "" ->
        Printf.eprintf "%s expects a path (%s=PATH)\n" flag flag;
        exit 2
    | path -> path
  in
  let int_flags = [ ("--jobs", Common.jobs); ("--domains", Common.domains) ] in
  let out_flags =
    [
      ("--bench-out", Common.bench_out);
      ("--bench-macro-out", Common.bench_macro_out);
      ("--bench-scale-out", Common.bench_scale_out);
      ("--bench-serve-out", Common.bench_serve_out);
    ]
  in
  let rec scan_flags = function
    | [] -> ()
    | [ flag ] when List.mem_assoc flag int_flags -> ignore (jobs_of_string flag "" : int)
    | flag :: n :: rest when List.mem_assoc flag int_flags ->
        List.assoc flag int_flags := jobs_of_string flag n;
        scan_flags rest
    | flag :: _ when List.mem_assoc flag out_flags ->
        Printf.eprintf "output flags take inline values: %s\n"
          (String.concat " / " (List.map (fun (f, _) -> f ^ "=PATH") out_flags));
        exit 2
    | a :: rest ->
        let inline flags parse =
          List.iter
            (fun (flag, r) -> Option.iter (fun v -> r := parse flag v) (value_of ~pfx:(flag ^ "=") a))
            flags
        in
        inline int_flags jobs_of_string;
        inline out_flags out_path;
        scan_flags rest
  in
  scan_flags args;
  List.iter (fun a -> ignore (Splay.Obs_flags.parse_arg a : bool)) args;
  let selected =
    let rec keep = function
      | [] -> []
      | ("--jobs" | "--domains") :: _ :: rest -> keep rest
      | a :: rest ->
          if String.length a >= 2 && String.sub a 0 2 = "--" then keep rest
          else
            (match List.assoc_opt a aliases with Some target -> target | None -> a) :: keep rest
    in
    keep args
  in
  if listing then list_experiments ()
  else begin
    Common.scale := (if full then Common.Full else Common.Quick);
    Printf.printf "SPLAY reproduction benchmark harness (%s scale%s)\n"
      (if full then "full/paper" else "quick")
      (if !Common.jobs > 1 then Printf.sprintf ", %d jobs" !Common.jobs else "");
    let to_run =
      match selected with
      | [] -> experiments
      | names ->
          List.filter_map
            (fun name ->
              match List.find_opt (fun (id, _, _) -> id = name) experiments with
              | Some e -> Some e
              | None ->
                  Printf.eprintf "unknown experiment %S (try --list)\n" name;
                  exit 2)
            names
    in
    List.iter
      (fun (id, _, run) ->
        let t0 = Sys.time () in
        Common.obs_begin ();
        run ();
        Common.obs_end ();
        Printf.printf "  (%s took %.1f s of CPU)\n%!" id (Sys.time () -. t0))
      to_run
  end
