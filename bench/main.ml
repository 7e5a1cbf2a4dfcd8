(* Regenerates every table and figure of the paper's evaluation:

   T1  data-race-test results for the four detector configurations
   T2  spin-window sensitivity (k = 3, 6, 7, 8)
   T3  PARSEC program inventory
   T4  PARSEC racy contexts, programs without ad-hoc synchronization
   T5  PARSEC racy contexts, programs with ad-hoc synchronization
   T6  the combined "universal race detector" table
   F1  detector memory consumption
   F2  runtime overhead

   Compare the output against EXPERIMENTS.md.

   With a subcommand it runs the timing gates instead (gates) or
   regenerates the golden trace fixtures (fixtures); see [usage] below. *)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

let tables () =
  section "Table 1: data-race-test suite (120 cases)";
  let rows1, t1 = Arde_harness.Suite_experiment.table1 () in
  print_string t1;
  section "Table 1a: failures by case category";
  print_string (Arde_harness.Suite_experiment.category_table rows1);
  section "Table 2: spinning-read-loop window sensitivity";
  let _rows, t2 = Arde_harness.Suite_experiment.table2 () in
  print_string t2;
  section
    "Table 2a (ablation): same sweep without counting condition-callee blocks";
  let ablation_options =
    Arde.Options.with_count_callee_blocks false
      Arde_harness.Suite_experiment.suite_options
  in
  let _rows, t2a =
    Arde_harness.Suite_experiment.table2 ~options:ablation_options ()
  in
  print_string t2a;
  section "Table 3: PARSEC 2.0 program inventory";
  print_string (Arde_harness.Parsec_experiment.table3 ());
  section "Table 4: racy contexts, programs without ad-hoc synchronization";
  let _r, t4 = Arde_harness.Parsec_experiment.table4 () in
  print_string t4;
  section "Table 5: racy contexts, programs with ad-hoc synchronization";
  let _r, t5 = Arde_harness.Parsec_experiment.table5 () in
  print_string t5;
  section "Table 6: universal race detector (all programs)";
  let _r, t6 = Arde_harness.Parsec_experiment.table6 () in
  print_string t6

(* The paper's stated future work, realized: identify the lock words of
   the lowered (unknown) library statically and rebuild the lockset, then
   compare the universal detector with and without it. *)
let extension_table () =
  section "Extension: universal detector + inferred lock words (future work)";
  let cases = Arde_workloads.Racey.all () in
  let rows =
    List.map
      (fun m -> Arde_harness.Suite_experiment.run_mode m cases)
      [ Arde.Config.Nolib_spin 7; Arde.Config.Nolib_spin_locks 7 ]
  in
  print_string (Arde_harness.Suite_experiment.render rows)

let figures () =
  section "Figure 1: detector memory consumption (heap words)";
  let _figs, f1, f2 = Arde_harness.Perf.run_figures ~repeats:3 () in
  print_string f1;
  section "Figure 2: runtime (ms per full run) and spin overhead ratio";
  print_string f2

(* `bench gates`: the timing floors of Arde_harness.Gates.  Prints the
   rows, writes them as JSON to [out] and exits 1 when any row misses
   its bound. *)
let gates ~out () =
  let module G = Arde_harness.Gates in
  section
    (Printf.sprintf "Timing gates: median of %d paired ratios vs bound" G.pairs);
  let rows = G.run () in
  print_string (G.render rows);
  let oc = open_out out in
  output_string oc (Arde.Json.to_string ~minify:false (G.to_json rows));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = List.filter (fun r -> not r.G.pass) rows in
  List.iter
    (fun r ->
      Printf.eprintf "bench gates: FAIL: %s on %s under %s: %.3fx vs bound %.2fx\n"
        r.G.gate r.G.workload r.G.mode r.G.ratio r.G.bound)
    failed;
  if failed <> [] then exit 1

(* `bench fixtures [--ref]`: runs the full fixture enumeration
   (Trace_fixtures.groups) through the current machine (or, with
   --ref, the frozen reference machine) and writes one summary line per
   run.  The committed file is the machine's correctness baseline:
   test_machine_diff replays the same enumeration and asserts every
   trace hash, length, step count and outcome is identical. *)
let fixtures ~impl ~out () =
  let t0 = Unix.gettimeofday () in
  let rows = Arde_harness.Trace_fixtures.run_all impl in
  Arde_harness.Trace_fixtures.write_file out rows;
  Printf.printf "wrote %s (%d fixtures, %.1fs)\n" out (List.length rows)
    (Unix.gettimeofday () -. t0)

(* Subcommand, default output path, runner (given --ref and the path). *)
let subcommands =
  [
    ("gates", "BENCH_gates.json", fun ~ref_:_ ~out -> gates ~out ());
    ( "fixtures",
      "test/fixtures/machine_traces.txt",
      fun ~ref_ ~out ->
        fixtures ~out
          ~impl:
            (if ref_ then Arde_harness.Trace_fixtures.reference_machine
             else Arde_harness.Trace_fixtures.current_machine)
          () );
  ]

let usage msg =
  Printf.eprintf
    "bench: %s\n\
     usage: bench                      (the paper's tables and figures)\n\
    \       bench gates [-o PATH]\n\
    \       bench fixtures [--ref] [-o PATH]\n"
    msg;
  exit 2

let () =
  let rec parse ((cmd, out, ref_) as acc) = function
    | [] -> acc
    | [ "-o" ] -> usage "-o needs a value"
    | "-o" :: p :: rest -> parse (cmd, Some p, ref_) rest
    | "--ref" :: rest -> parse (cmd, out, true) rest
    | a :: _ when String.starts_with ~prefix:"-" a ->
        usage ("unknown option " ^ a)
    | a :: rest when cmd = None -> parse (Some a, out, ref_) rest
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  match parse (None, None, false) (List.tl (Array.to_list Sys.argv)) with
  | None, None, false ->
      tables ();
      extension_table ();
      figures ()
  | None, _, _ -> usage "-o and --ref need a subcommand"
  | Some name, _, true when name <> "fixtures" ->
      usage "--ref applies to fixtures only"
  | Some name, out, ref_ -> (
      match List.find_opt (fun (n, _, _) -> n = name) subcommands with
      | None -> usage ("unknown subcommand " ^ name)
      | Some (_, default_out, run) ->
          run ~ref_ ~out:(Option.value out ~default:default_out))
