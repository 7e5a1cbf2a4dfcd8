(* Regenerates every table and figure of the paper's evaluation:

   T1  data-race-test results for the four detector configurations
   T2  spin-window sensitivity (k = 3, 6, 7, 8)
   T3  PARSEC program inventory
   T4  PARSEC racy contexts, programs without ad-hoc synchronization
   T5  PARSEC racy contexts, programs with ad-hoc synchronization
   T6  the combined "universal race detector" table
   F1  detector memory consumption
   F2  runtime overhead

   plus Bechamel micro-benchmarks of the pipeline stages.  Compare the
   output against EXPERIMENTS.md. *)

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

(* Bechamel micro-benchmarks: one Test.make per reproduced artifact,
   exercising the pipeline stage that dominates it. *)
let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let flag_case =
    match Arde_workloads.Racey.find "adhoc_flag_w2/8" with
    | Some c -> c.Arde_workloads.Racey.program
    | None -> assert false
  in
  let compiled = Arde.Machine.compile flag_case in
  let inst = Arde.Instrument.analyze ~k:7 flag_case in
  let detect_once mode () =
    let engine = Arde.Engine.create (Arde.Config.make mode) ~instrument:(Some inst) in
    ignore
      (Arde.Machine.run
         {
           Arde.Machine.default_config with
           Arde.Machine.instrument = Some inst;
           observer = Arde.Engine.observer engine;
         }
         compiled)
  in
  let tests =
    [
      Test.make ~name:"T1:instrumentation-phase"
        (Staged.stage (fun () -> ignore (Arde.Instrument.analyze ~k:7 flag_case)));
      Test.make ~name:"T1:machine-only"
        (Staged.stage (fun () ->
             ignore (Arde.Machine.run Arde.Machine.default_config compiled)));
      Test.make ~name:"T1:hybrid-lib"
        (Staged.stage (detect_once Arde.Config.Helgrind_lib));
      Test.make ~name:"T2:hybrid-spin7"
        (Staged.stage (detect_once (Arde.Config.Helgrind_spin 7)));
      Test.make ~name:"T6:lowering"
        (Staged.stage (fun () -> ignore (Arde.Lower.lower flag_case)));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = List.map (fun t -> (Test.Elt.name (List.hd (Test.elements t)), Benchmark.all cfg instances t)) tests in
  section "Bechamel: per-stage timings (ns, monotonic clock)";
  List.iter
    (fun (name, tbl) ->
      Hashtbl.iter
        (fun _ result ->
          let ols =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Instance.monotonic_clock result
          in
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        tbl)
    raw

(* ---- the parallel-stage / analysis-cache benchmark ----

   `bench parallel [-o PATH]` times the domain-pool per-seed stage at
   several pool widths and the analysis cache on/off, and writes the
   measurements to BENCH_parallel.json (the wire form CI archives).
   Speedups are wall-clock, so they reflect the cores of the machine
   running the benchmark — [host_cores] is recorded alongside. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let parallel_bench ~out () =
  let module J = Arde.Json in
  let mode = Arde.Config.Nolib_spin 7 in
  (* every 15th catalog case: a cross-category sample with enough work
     per run for wall-clock timing to mean something *)
  let sample =
    List.filteri (fun i _ -> i mod 15 = 0) (Arde_workloads.Racey.all ())
  in
  let progs = List.map (fun c -> c.Arde_workloads.Racey.program) sample in
  let seeds = List.init 16 (fun i -> i + 1) in
  let opts jobs = Arde.Options.make ~seeds ~fuel:400_000 ~jobs () in
  let run_all jobs =
    List.iter
      (fun p ->
        ignore
          (Arde.detect
             ~ctx:(Arde.Driver.ctx ~options:(opts jobs) ())
             ~mode (Arde.Input.Program p)))
      progs
  in
  (* per-stage wall times, measured fresh on one representative *)
  let rep = List.hd progs in
  Arde.Analysis_cache.clear ();
  let lowered, t_lower =
    wall (fun () -> Arde.Lower.lower ~style:Arde.Lower.Realistic rep)
  in
  let _, t_instrument =
    wall (fun () -> Arde.Instrument.analyze ~k:7 lowered)
  in
  (* warm the cache so the sweep times the per-seed stage, not prepare *)
  run_all 1;
  (* widths beyond the physical cores would only measure oversubscription
     noise — skip them, but record what was skipped so a run on a small
     host is distinguishable from a run that covered everything *)
  let host_cores = Domain.recommended_domain_count () in
  let widths, skipped_widths =
    List.partition
      (fun j -> j <= host_cores)
      (List.sort_uniq compare [ 1; 2; 4; max 1 Arde.Options.default_jobs ])
  in
  let sweep = List.map (fun j -> (j, snd (wall (fun () -> run_all j)))) widths in
  let t_seq = List.assoc 1 sweep in
  (* the cache's contribution: same sequential sweep, cold every run *)
  Arde.Analysis_cache.set_enabled false;
  let (), t_nocache = wall (fun () -> run_all 1) in
  Arde.Analysis_cache.set_enabled true;
  let (), t_cached = wall (fun () -> run_all 1) in
  (* acceptance probe: a 5-seed run against the warm cache records hits *)
  Arde.Analysis_cache.reset_stats ();
  ignore
    (Arde.detect
       ~ctx:
         (Arde.Driver.ctx
            ~options:(Arde.Options.make ~seeds:[ 1; 2; 3; 4; 5 ] ())
            ())
       ~mode (Arde.Input.Program rep));
  let cs = Arde.Analysis_cache.stats () in
  let json =
    J.Obj
      [
        ("host_cores", J.Int host_cores);
        ("skipped_widths", J.List (List.map (fun j -> J.Int j) skipped_widths));
        ("default_jobs", J.Int Arde.Options.default_jobs);
        ("mode", J.String (Arde.Config.mode_name mode));
        ("workloads", J.Int (List.length progs));
        ("seeds_per_run", J.Int (List.length seeds));
        ( "stages",
          J.Obj
            [
              ("lower_s", J.Float t_lower);
              ("instrument_s", J.Float t_instrument);
              ("per_seed_stage_s", J.Float t_seq);
            ] );
        ( "jobs_sweep",
          J.List
            (List.map
               (fun (j, t) ->
                 J.Obj
                   [
                     ("jobs", J.Int j);
                     ("wall_s", J.Float t);
                     ("speedup", J.Float (t_seq /. t));
                   ])
               sweep) );
        ( "cache",
          J.Obj
            [
              ("disabled_wall_s", J.Float t_nocache);
              ("enabled_wall_s", J.Float t_cached);
              ("speedup", J.Float (t_nocache /. t_cached));
              ("five_seed_run", Arde.Analysis_cache.stats_to_json cs);
            ] );
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string ~minify:false json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ---- the engine differential benchmark ----

   `bench engine [-o PATH]` replays recorded traces through the optimized
   epoch engine and the frozen reference engine, writes the rows to
   BENCH_engine.json, and exits non-zero when the CI gate fails (the
   optimized engine slower than the reference on streamcluster under
   nolib+spin(7), or any report spot-check disagreeing). *)

let engine_bench ~out () =
  let module J = Arde.Json in
  let rows = Arde_harness.Engine_bench.run ~repeats:5 () in
  section "Engine differential: optimized vs reference, per trace";
  print_string (Arde_harness.Engine_bench.render rows);
  let oc = open_out out in
  output_string oc (J.to_string ~minify:false (Arde_harness.Engine_bench.to_json rows));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  match Arde_harness.Engine_bench.gate rows with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "bench engine: FAIL: %s\n") failures;
      exit 1

(* ---- the machine differential benchmark ----

   `bench machine [-o PATH]` runs each workload × mode end-to-end on the
   compiled machine and on the frozen reference machine, writes the
   measurements (quiet steps/s, words/step, events/s, plus the
   straight-line zero-allocation probe) to BENCH_machine.json, and exits
   non-zero when the CI gate fails (the optimized machine slower than the
   reference on streamcluster under nolib+spin(7), any trace spot-check
   disagreeing, or the straight-line path allocating). *)

let machine_bench ~out () =
  let module J = Arde.Json in
  let results = Arde_harness.Machine_bench.run ~repeats:5 () in
  section "Machine differential: compiled vs reference, end-to-end";
  print_string (Arde_harness.Machine_bench.render results);
  let oc = open_out out in
  output_string oc
    (J.to_string ~minify:false (Arde_harness.Machine_bench.to_json results));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  match Arde_harness.Machine_bench.gate results with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "bench machine: FAIL: %s\n") failures;
      exit 1

(* ---- the record/replay benchmark ----

   `bench replay [-o PATH]` prices the recording sink against the bare
   machine's quiet fast path, and replayed detection against the live
   run it reproduces, writing both halves (plus trace size per event and
   the byte-identity verdict) to BENCH_replay.json.  Exits non-zero when
   the CI gate fails: any replayed result diverging from its live run,
   or recording overhead above 1.1x quiet on streamcluster under
   nolib+spin(7). *)

let replay_bench ~out () =
  let module J = Arde.Json in
  let rows = Arde_harness.Replay_bench.run ~repeats:5 () in
  section "Record/replay: sink overhead and replay throughput";
  print_string (Arde_harness.Replay_bench.render rows);
  let oc = open_out out in
  output_string oc
    (J.to_string ~minify:false (Arde_harness.Replay_bench.to_json rows));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  match Arde_harness.Replay_bench.gate rows with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "bench replay: FAIL: %s\n") failures;
      exit 1

(* ---- the prediction benchmark ----

   `bench predict [-o PATH]` differences a Predict analysis (two
   recorded executions plus the sync-preserving closure) against the
   16-seed sweep on the racy and race-free catalog under the Table-1
   modes, and prices predict-from-one-trace against the live sweep on
   swaptions, writing rows, timing and the executions-per-race summary
   to BENCH_predict.json.  Exits non-zero when the CI gate fails: a
   sweep-found race the predict run misses, a predicted race neither
   the sweep nor ground truth vouches for, predict-from-trace above
   0.25x the sweep wall clock, or an executions-per-race reduction
   below 4x. *)

let predict_bench ~out () =
  let module J = Arde.Json in
  let t = Arde_harness.Predict_bench.run () in
  section "Prediction: coverage, soundness and cost vs the 16-seed sweep";
  print_string (Arde_harness.Predict_bench.render t);
  let oc = open_out out in
  output_string oc
    (J.to_string ~minify:false (Arde_harness.Predict_bench.to_json t));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  match Arde_harness.Predict_bench.gate t with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "bench predict: FAIL: %s\n") failures;
      exit 1

(* ---- golden-trace fixture generator ----

   `bench fixtures [-o PATH]` runs the full fixture enumeration
   (Trace_fixtures.groups) through the current machine and writes one
   summary line per run.  The committed file is the machine's correctness
   baseline: test_machine_diff replays the same enumeration and asserts
   every trace hash, length, step count and outcome is identical. *)

let fixtures ~impl ~out () =
  let t0 = Unix.gettimeofday () in
  let rows = Arde_harness.Trace_fixtures.run_all impl in
  Arde_harness.Trace_fixtures.write_file out rows;
  Printf.printf "wrote %s (%d fixtures, %.1fs)\n" out (List.length rows)
    (Unix.gettimeofday () -. t0)

(* ---- the serve load benchmark ----

   `bench serve [-o PATH]` starts an in-process daemon, drives it with
   concurrent clients over a mixed repeated/unique workload (analysis-
   heavy PARSEC programs under the lowering mode, plus unit-suite
   smalls), and compares served throughput against one-shot `arde run
   --format json` subprocess invocations of the same request list — the
   comparison the server exists to win: a one-shot process pays startup,
   parsing and the whole static phase on every request, while the
   daemon's resident caches reduce a repeat submission to per-seed
   execution.  Round 0 is the cold round (every program unseen); rounds
   1+ are the warm phase, and the headline number is warm-phase served
   throughput over one-shot throughput.  Writes BENCH_serve.json; exits
   non-zero when the CI gate fails (any well-formed request refused or
   dropped, or warm-cache speedup below 1.0x). *)

let serve_bench ~out () =
  let module J = Arde.Json in
  let module P = Arde_server.Protocol in
  let module S = Arde_server.Server in
  let module C = Arde_server.Client in
  let module W = Arde_workloads in
  let clients = 4 and rounds = 4 in
  let seeds = 2 and fuel = 20_000 in
  let options = Arde.Options.make ~seeds:(List.init seeds (fun i -> i + 1)) ~fuel () in
  let parsec_reqs =
    List.filter_map
      (fun name ->
        match W.Catalog.find name with
        | Some (W.Catalog.Parsec (_, p)) ->
            Some (name, Arde.Pretty.program_to_string p,
                  Arde.Config.Nolib_spin 7)
        | _ -> None)
      [ "x264"; "dedup"; "facesim"; "ferret"; "vips"; "raytrace" ]
  in
  let small_reqs =
    let rec take n = function
      | x :: tl when n > 0 -> x :: take (n - 1) tl
      | _ -> []
    in
    List.map
      (fun c ->
        (c.W.Racey.name, Arde.Pretty.program_to_string c.W.Racey.program,
         Arde.Config.Helgrind_spin 7))
      (take 4 (W.Racey.all ()))
  in
  let one_round = parsec_reqs @ small_reqs in
  let requests =
    List.concat
      (List.init rounds (fun round ->
           List.map (fun r -> (round, r)) one_round))
  in
  let n_requests = List.length requests in

  (* ---- served phase: cold daemon, concurrent clients ---- *)
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "arde-bench-%d.sock" (Unix.getpid ()))
  in
  (* One worker per client: each worker holds one request in flight, so
     a narrower fleet would measure queue wait, not serving speed. *)
  let srv =
    match
      S.create
        (S.config ~workers:clients ~max_pending:256 ~socket_path:path ())
    with
    | Ok t -> t
    | Error e ->
        prerr_endline ("bench serve: " ^ e);
        exit 1
  in
  let runner = Domain.spawn (fun () -> S.run srv) in
  let indexed = List.mapi (fun i r -> (i, r)) requests in
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init clients (fun cnum ->
        Domain.spawn (fun () ->
            match C.connect ~endpoint:(C.Unix_socket path) () with
            | Error e -> [ `Transport ("connect: " ^ e) ]
            | Ok cl ->
                Fun.protect
                  ~finally:(fun () -> C.close cl)
                  (fun () ->
                    List.filter_map
                      (fun (i, (round, (name, text, mode))) ->
                        if i mod clients <> cnum then None
                        else
                          let s = Unix.gettimeofday () in
                          let r = C.run cl ~program:text ~mode ~options () in
                          let dt = Unix.gettimeofday () -. s in
                          Some
                            (match r with
                            | Ok resp when P.response_ok resp -> `Ok (round, dt)
                            | Ok resp ->
                                `Refused
                                  (Printf.sprintf "%s: %s" name
                                     (match P.response_error resp with
                                     | Some (c, m) -> c ^ ": " ^ m
                                     | None -> "refused"))
                            | Error e -> `Transport (name ^ ": " ^ e)))
                      indexed)))
  in
  let results = List.concat_map Domain.join domains in
  let served_wall = Unix.gettimeofday () -. t0 in
  (* Detection now happens in worker processes: the daemon-side cache
     story lives in the supervision stats (and each worker's response
     carries its own analysis-cache delta). *)
  let supervision =
    match C.connect ~endpoint:(C.Unix_socket path) () with
    | Error _ -> J.Null
    | Ok cl ->
        Fun.protect
          ~finally:(fun () -> C.close cl)
          (fun () ->
            match C.stats cl with
            | Ok resp ->
                Option.value ~default:J.Null
                  (Option.bind (J.member "stats" resp)
                     (J.member "supervision"))
            | Error _ -> J.Null)
  in
  S.initiate_drain srv;
  Domain.join runner;

  let latencies =
    List.filter_map (function `Ok rd -> Some rd | _ -> None) results
  in
  let refused =
    List.filter_map (function `Refused m -> Some m | _ -> None) results
  in
  let dropped =
    List.filter_map (function `Transport m -> Some m | _ -> None) results
  in
  let warm = List.filter_map
      (fun (round, dt) -> if round > 0 then Some dt else None) latencies in
  let cold = List.filter_map
      (fun (round, dt) -> if round = 0 then Some dt else None) latencies in

  (* ---- one-shot baseline: `arde run --format json` subprocesses ----
     One subprocess per request of one round's mix: per-request one-shot
     cost is round-independent (cold every time), so one round measures
     it.  Falls back to in-process cold-cache detection when the CLI
     binary is not next to the bench (recorded in the artifact). *)
  let cli_binary =
    match Sys.getenv_opt "ARDE_BIN" with
    | Some p when Sys.file_exists p -> Some p
    | Some _ | None ->
        let sibling =
          Filename.concat
            (Filename.dirname (Filename.dirname Sys.executable_name))
            "bin/arde_cli.exe"
        in
        if Sys.file_exists sibling then Some sibling else None
  in
  let oneshot_kind, oneshot_wall =
    match cli_binary with
    | Some bin ->
        let files =
          List.map
            (fun (name, text, mode) ->
              let slug =
                String.map (fun c -> if c = '/' then '_' else c) name
              in
              let file = Filename.temp_file ("arde-bench-" ^ slug) ".tir" in
              let oc = open_out file in
              output_string oc text;
              close_out oc;
              (name, file, mode))
            one_round
        in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun (_, f, _) -> try Sys.remove f with Sys_error _ -> ())
              files)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            List.iter
              (fun (name, file, mode) ->
                let cmd =
                  Printf.sprintf
                    "%s run %s -m %s --seeds %d --fuel %d --format json > /dev/null"
                    (Filename.quote bin) (Filename.quote file)
                    (Filename.quote (Arde.Config.mode_id mode))
                    seeds fuel
                in
                let rc = Sys.command cmd in
                if rc > 3 then begin
                  Printf.eprintf
                    "bench serve: one-shot baseline failed on %s (exit %d)\n"
                    name rc;
                  exit 1
                end)
              files;
            ("subprocess", Unix.gettimeofday () -. t0))
    | None ->
        prerr_endline
          "bench serve: arde binary not found (set ARDE_BIN); falling back \
           to in-process baseline";
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun (_, text, mode) ->
            Arde.Analysis_cache.clear ();
            match Arde.Parse.program text with
            | Error _ -> ()
            | Ok p ->
                ignore
                  (Arde.detect
                     ~ctx:(Arde.Driver.ctx ~options ())
                     ~mode (Arde.Input.Program p)))
          one_round;
        ("in-process", Unix.gettimeofday () -. t0)
  in

  (* ---- chaos phase: the same serving stack under injected crashes ----
     A fresh daemon with a fault plan that SIGKILLs each worker on every
     5th request; clients retry with bounded backoff.  The phase gates on
     crash-only behaviour, not speed: every request completes, crashes
     and restarts stay proportional to the plan, and a crash bundle is
     sealed for each kill. *)
  let chaos_kill_every = 5 in
  let chaos_path = path ^ ".chaos" in
  let chaos_srv =
    match
      S.create
        (S.config ~workers:2 ~max_pending:256 ~restart_backoff_ms:20
           ~chaos_plan:(Printf.sprintf "kill:%d" chaos_kill_every)
           ~socket_path:chaos_path ())
    with
    | Ok t -> t
    | Error e ->
        prerr_endline ("bench serve: chaos: " ^ e);
        exit 1
  in
  let chaos_runner = Domain.spawn (fun () -> S.run chaos_srv) in
  let chaos_indexed = List.mapi (fun i r -> (i, r)) one_round in
  let chaos_t0 = Unix.gettimeofday () in
  let chaos_domains =
    List.init clients (fun cnum ->
        Domain.spawn (fun () ->
            List.filter_map
              (fun (i, (name, text, mode)) ->
                if i mod clients <> cnum then None
                else
                  let policy =
                    C.retry_policy ~attempts:10 ~backoff_ms:10
                      ~max_backoff_ms:200 ~jitter_seed:(cnum + i) ()
                  in
                  let outcome, retries =
                    C.submit_with_retry ~endpoint:(C.Unix_socket chaos_path) ~policy
                      ~program:text ~mode ~options ()
                  in
                  Some
                    (match outcome with
                    | Ok resp when P.response_ok resp -> `Ok retries
                    | Ok resp ->
                        `Failed
                          (Printf.sprintf "%s: %s" name
                             (match P.response_error resp with
                             | Some (c, m) -> c ^ ": " ^ m
                             | None -> "refused"))
                    | Error e -> `Failed (name ^ ": " ^ e)))
              chaos_indexed))
  in
  let chaos_results = List.concat_map Domain.join chaos_domains in
  let chaos_wall = Unix.gettimeofday () -. chaos_t0 in
  let chaos_sup =
    match C.connect ~endpoint:(C.Unix_socket chaos_path) () with
    | Error _ -> J.Null
    | Ok cl ->
        Fun.protect
          ~finally:(fun () -> C.close cl)
          (fun () ->
            match C.stats cl with
            | Ok resp ->
                Option.value ~default:J.Null
                  (Option.bind (J.member "stats" resp)
                     (J.member "supervision"))
            | Error _ -> J.Null)
  in
  S.initiate_drain chaos_srv;
  Domain.join chaos_runner;
  let chaos_ok =
    List.length (List.filter (function `Ok _ -> true | _ -> false) chaos_results)
  in
  let chaos_failed =
    List.filter_map (function `Failed m -> Some m | _ -> None) chaos_results
  in
  let chaos_retries =
    List.fold_left
      (fun acc -> function `Ok r -> acc + r | _ -> acc)
      0 chaos_results
  in
  let chaos_int key =
    match Option.bind (J.member key chaos_sup) J.to_int with
    | Some n -> n
    | None -> -1
  in
  let chaos_crashes = chaos_int "crashes"
  and chaos_restarts = chaos_int "restarts"
  and chaos_bundles = chaos_int "bundles_sealed" in
  (* Every kill is one crash; executions = requests + retries.  Allow +2
     slack for kills landing between requests of different clients. *)
  let chaos_crash_bound =
    ((List.length one_round + chaos_retries) / chaos_kill_every) + 2
  in
  let chaos_pass =
    chaos_failed = [] && chaos_crashes > 0
    && chaos_crashes <= chaos_crash_bound
    && chaos_restarts <= chaos_crash_bound
    && chaos_bundles > 0
  in

  let pctls sample =
    let sorted = Array.of_list (List.sort compare sample) in
    let pctl q =
      let n = Array.length sorted in
      if n = 0 then 0.
      else
        sorted.(max 0
                  (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
    in
    (pctl 0.50, pctl 0.95, pctl 0.99, pctl 1.0)
  in
  let latency_json sample =
    let p50, p95, p99, pmax = pctls sample in
    J.Obj
      [
        ("p50", J.Float (1000. *. p50));
        ("p95", J.Float (1000. *. p95));
        ("p99", J.Float (1000. *. p99));
        ("max", J.Float (1000. *. pmax));
      ]
  in
  let served_rps =
    float_of_int (List.length latencies) /. served_wall
  in
  (* The warm phase's own throughput: the warm rounds ran concurrently
     with the cold round, so sum per-request latency and divide by the
     effective parallelism instead of slicing wall time. *)
  let sum = List.fold_left ( +. ) 0. in
  let phase_rps sample =
    if sample = [] then 0.
    else
      let busy = sum sample /. float_of_int clients in
      float_of_int (List.length sample) /. busy
  in
  let warm_rps = phase_rps warm and cold_rps = phase_rps cold in
  let oneshot_rps = float_of_int (List.length one_round) /. oneshot_wall in
  let overall_speedup =
    if oneshot_rps > 0. then served_rps /. oneshot_rps else 0.
  in
  let warm_speedup = if oneshot_rps > 0. then warm_rps /. oneshot_rps else 0. in
  let ci_pass =
    refused = [] && dropped = [] && warm_speedup >= 1.0 && chaos_pass
  in
  let all_lat = List.map snd latencies in
  let json =
    J.Obj
      [
        ("bench", J.String "serve");
        ( "host",
          J.Obj [ ("cores", J.Int (Domain.recommended_domain_count ())) ] );
        ( "config",
          J.Obj
            [
              ("clients", J.Int clients);
              ("workers", J.Int clients);
              ("rounds", J.Int rounds);
              ("requests", J.Int n_requests);
              ("unique_programs", J.Int (List.length one_round));
              ("parsec_mode",
               J.String (Arde.Config.mode_id (Arde.Config.Nolib_spin 7)));
              ("seeds_per_request", J.Int seeds);
              ("fuel", J.Int fuel);
              ("max_pending", J.Int 256);
            ] );
        ( "served",
          J.Obj
            [
              ("wall_s", J.Float served_wall);
              ("throughput_rps", J.Float served_rps);
              ("latency_ms", latency_json all_lat);
              ( "cold_round",
                J.Obj
                  [
                    ("requests", J.Int (List.length cold));
                    ("throughput_rps", J.Float cold_rps);
                    ("latency_ms", latency_json cold);
                  ] );
              ( "warm_rounds",
                J.Obj
                  [
                    ("requests", J.Int (List.length warm));
                    ("throughput_rps", J.Float warm_rps);
                    ("latency_ms", latency_json warm);
                  ] );
              ("ok", J.Int (List.length latencies));
              ("refused", J.Int (List.length refused));
              ("dropped", J.Int (List.length dropped));
              ("supervision", supervision);
            ] );
        ( "oneshot",
          J.Obj
            [
              ("kind", J.String oneshot_kind);
              ("requests", J.Int (List.length one_round));
              ("wall_s", J.Float oneshot_wall);
              ("throughput_rps", J.Float oneshot_rps);
            ] );
        ( "chaos",
          J.Obj
            [
              ("plan", J.String (Printf.sprintf "kill:%d" chaos_kill_every));
              ("requests", J.Int (List.length one_round));
              ("ok", J.Int chaos_ok);
              ("failed", J.Int (List.length chaos_failed));
              ("retries", J.Int chaos_retries);
              ("wall_s", J.Float chaos_wall);
              ( "throughput_rps",
                J.Float (float_of_int chaos_ok /. chaos_wall) );
              ("supervision", chaos_sup);
              ("pass", J.Bool chaos_pass);
            ] );
        ("speedup", J.Float warm_speedup);
        ("overall_speedup", J.Float overall_speedup);
        ( "gate",
          J.Obj
            [
              ("min_warm_speedup_ci", J.Float 1.0);
              ("target_warm_speedup", J.Float 1.5);
              ("pass_ci", J.Bool ci_pass);
              ("meets_target", J.Bool (ci_pass && warm_speedup >= 1.5));
            ] );
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string ~minify:false json);
  output_char oc '\n';
  close_out oc;
  section "Serve: daemon vs one-shot `arde run`, same request mix";
  let _, w95, _, _ = pctls warm in
  let a50, a95, a99, _ = pctls all_lat in
  Printf.printf
    "%d requests, %d clients: served %.2f req/s (p50 %.0f ms, p95 %.0f ms, \
     p99 %.0f ms)\n\
     warm rounds %.2f req/s (p95 %.0f ms); one-shot (%s) %.2f req/s\n\
     warm-cache speedup %.2fx (overall %.2fx)\n"
    n_requests clients served_rps (1000. *. a50) (1000. *. a95) (1000. *. a99)
    warm_rps (1000. *. w95) oneshot_kind oneshot_rps warm_speedup
    overall_speedup;
  Printf.printf
    "chaos (kill:%d): %d/%d ok, %d retries, %d crashes, %d restarts, %d \
     bundles sealed\n"
    chaos_kill_every chaos_ok (List.length one_round) chaos_retries
    chaos_crashes chaos_restarts chaos_bundles;
  Printf.printf "wrote %s\n" out;
  List.iter (Printf.eprintf "bench serve: refused: %s\n") refused;
  List.iter (Printf.eprintf "bench serve: dropped: %s\n") dropped;
  List.iter (Printf.eprintf "bench serve: chaos failed: %s\n") chaos_failed;
  if not ci_pass then begin
    Printf.eprintf
      "bench serve: FAIL: %d refused, %d dropped, warm speedup %.2fx, chaos \
       %s (gate: 0 refused, 0 dropped, >= 1.0x, chaos pass)\n"
      (List.length refused) (List.length dropped) warm_speedup
      (if chaos_pass then "pass" else "FAIL");
    exit 1
  end

let () =
  (* The serve benchmark hosts a supervisor whose workers re-exec this
     very binary; the hook must intercept the marker first. *)
  Arde_server.Worker.hook ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec out_path = function
    | "-o" :: p :: _ -> p
    | _ :: rest -> out_path rest
    | [] -> "BENCH_parallel.json"
  in
  if List.mem "fixtures" args then
    fixtures
      ~impl:
        (if List.mem "--ref" args then
           Arde_harness.Trace_fixtures.reference_machine
         else Arde_harness.Trace_fixtures.current_machine)
      ~out:
        (match out_path args with
        | "BENCH_parallel.json" -> "test/fixtures/machine_traces.txt"
        | p -> p)
      ()
  else if List.mem "machine" args then
    machine_bench
      ~out:
        (match out_path args with
        | "BENCH_parallel.json" -> "BENCH_machine.json"
        | p -> p)
      ()
  else if List.mem "engine" args then
    engine_bench
      ~out:
        (match out_path args with
        | "BENCH_parallel.json" -> "BENCH_engine.json"
        | p -> p)
      ()
  else if List.mem "replay" args then
    replay_bench
      ~out:
        (match out_path args with
        | "BENCH_parallel.json" -> "BENCH_replay.json"
        | p -> p)
      ()
  else if List.mem "predict" args then
    predict_bench
      ~out:
        (match out_path args with
        | "BENCH_parallel.json" -> "BENCH_predict.json"
        | p -> p)
      ()
  else if List.mem "parallel" args then parallel_bench ~out:(out_path args) ()
  else if List.mem "serve" args then
    serve_bench
      ~out:
        (match out_path args with
        | "BENCH_parallel.json" -> "BENCH_serve.json"
        | p -> p)
      ()
  else begin
    tables ();
    extension_table ();
    figures ();
    bechamel_suite ()
  end
