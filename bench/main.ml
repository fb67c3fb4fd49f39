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

(* A bare or empty --out-dir is an error: silently falling back to the
   default would overwrite the committed baselines the caller meant to
   redirect. *)
let dir_of_string ctx s =
  if s = "" || String.starts_with ~prefix:"--" s then begin
    Printf.eprintf "%s expects a directory, got %S\n" ctx s;
    exit 2
  end;
  s

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let listing = List.mem "--list" args in
  (* --jobs N: trial fan-out width for the experiments; --domains N:
     partitions of the parallel single runs; --out-dir DIR: where the
     BENCH_*.json baselines go. Each also takes the --flag=VALUE form. *)
  let flags =
    [
      ("--jobs", fun f v -> Common.jobs := jobs_of_string f v);
      ("--domains", fun f v -> Common.domains := jobs_of_string f v);
      ("--out-dir", fun f v -> Common.out_dir := dir_of_string f v);
    ]
  in
  let set flag v = List.assoc flag flags flag v in
  (* Flags apply as they are scanned; what remains are experiment names.
     An unknown flag is an error, like a bare one. *)
  let rec scan = function
    | [] -> []
    | [ flag ] when List.mem_assoc flag flags ->
        set flag "";
        []
    | flag :: v :: rest when List.mem_assoc flag flags ->
        set flag v;
        scan rest
    | a :: rest when String.starts_with ~prefix:"--" a ->
        (match String.index_opt a '=' with
        | Some i when List.mem_assoc (String.sub a 0 i) flags ->
            set (String.sub a 0 i) (String.sub a (i + 1) (String.length a - i - 1))
        | _ ->
            if not (a = "--full" || a = "--list" || Splay.Obs_flags.parse_arg a) then begin
              Printf.eprintf "unknown flag %s\n" a;
              exit 2
            end);
        scan rest
    | a :: rest -> (match List.assoc_opt a aliases with Some target -> target | None -> a) :: scan rest
  in
  let selected = scan args in
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
      to_run;
    if !Row.violations > 0 then begin
      Printf.eprintf "%d bench bound(s) violated\n" !Row.violations;
      exit 1
    end
  end
