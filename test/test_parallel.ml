(* The parallel per-seed stage and its supporting API surface:

   - determinism: [jobs = 1] and [jobs = 8] produce byte-identical
     results (merged report, per-seed runs, health verdict), across the
     workload catalog and under chaos-injected crashes;
   - the analysis cache returns exactly what a fresh analysis returns,
     and actually hits on repeated runs;
   - the JSON wire forms round-trip;
   - the Options construction API behaves. *)

module D = Arde.Driver
module O = Arde.Options
module J = Arde.Json

(* The determinism checks vary only the pool width, and a width beyond
   the host core count is (by design) recorded as a clamp note in the
   health record — drop those notes so the comparison sees just the
   detection results. *)
let strip_clamp_notes r =
  let h = r.D.health in
  {
    r with
    D.health =
      {
        h with
        D.h_notes =
          List.filter
            (fun n ->
              not (String.length n >= 5 && String.sub n 0 5 = "jobs:"))
            h.D.h_notes;
      };
  }

let result_bytes r = J.to_string (D.result_to_json (strip_clamp_notes r))

let run_with_jobs ~jobs ?(options = O.default) mode p =
  Arde.detect
    ~ctx:(Arde.Driver.ctx ~options:(O.with_jobs jobs options) ())
    ~mode (Arde.Input.Program p)

(* ------------------------------------------------------------------ *)
(* Determinism across pool widths                                      *)

(* A slice of the catalog: every 12th case samples all categories
   without making the test slow. *)
let catalog_sample () =
  List.filteri (fun i _ -> i mod 12 = 0) (Arde_workloads.Racey.all ())

(* Every analysis: [Predict] and [Both] predict inside the per-seed
   stage, so their predictions must not depend on the pool width
   either. *)
let test_jobs_determinism () =
  List.iter
    (fun analysis ->
      let options =
        O.make ~seeds:[ 1; 2; 3; 4; 5; 6 ] ~fuel:400_000 ()
        |> O.with_analysis analysis
      in
      List.iter
        (fun (c : Arde_workloads.Racey.case) ->
          List.iter
            (fun mode ->
              let seq = run_with_jobs ~jobs:1 ~options mode c.program in
              let par = run_with_jobs ~jobs:8 ~options mode c.program in
              Alcotest.(check string)
                (Printf.sprintf "%s under %s, %s: jobs=1 = jobs=8" c.name
                   (Arde.Config.mode_name mode) (O.analysis_name analysis))
                (result_bytes seq) (result_bytes par);
              Alcotest.(check (list string))
                (c.name ^ ": racy bases agree") (D.racy_bases seq)
                (D.racy_bases par))
            [ Arde.Config.Helgrind_lib; Arde.Config.Helgrind_spin 7 ])
        (catalog_sample ()))
    [ O.Sweep; O.Predict; O.Both ]

let racy_case name =
  match Arde_workloads.Racey.find name with
  | Some c -> c.Arde_workloads.Racey.program
  | None -> Alcotest.failf "case %s missing" name

let test_jobs_determinism_under_chaos () =
  (* Crashing and faulting seeds exercise the sandbox on worker domains;
     the salvage path must stay order-stable too. *)
  let p = racy_case "racy_counter/2" in
  List.iter
    (fun perturbation ->
      let options =
        Arde.Chaos.apply
          (O.make ~seeds:[ 1; 2; 3; 4; 5 ] ~fuel:60_000 ())
          perturbation
      in
      let seq = run_with_jobs ~jobs:1 ~options Arde.Config.(Helgrind_spin 7) p in
      let par = run_with_jobs ~jobs:8 ~options Arde.Config.(Helgrind_spin 7) p in
      Alcotest.(check string)
        (Format.asprintf "%a: jobs=1 = jobs=8" Arde.Chaos.pp_perturbation
           perturbation)
        (result_bytes seq) (result_bytes par))
    [
      Arde.Chaos.Crash_at 40;
      Arde.Chaos.Fault_at 25;
      Arde.Chaos.Spurious_wakeups;
      Arde.Chaos.Starve_fuel 200;
    ]

(* ------------------------------------------------------------------ *)
(* Analysis cache                                                      *)

let test_cache_matches_fresh_instrumentation () =
  let p = racy_case "adhoc_flag_w2/8" in
  Arde.Analysis_cache.clear ();
  let fresh = Arde.Instrument.analyze ~count_callees:true ~k:7 p in
  let first = Arde.Analysis_cache.instrumented ~count_callees:true ~k:7 p in
  let cached = Arde.Analysis_cache.instrumented ~count_callees:true ~k:7 p in
  let summary i = Format.asprintf "%a" Arde.Instrument.pp_summary i in
  Alcotest.(check string) "cache miss = fresh analysis" (summary fresh)
    (summary first);
  Alcotest.(check string) "cache hit = fresh analysis" (summary fresh)
    (summary cached);
  Alcotest.(check int) "same accepted spin loops"
    (List.length (Arde.Instrument.spins fresh))
    (List.length (Arde.Instrument.spins cached))

let test_cache_matches_fresh_lowering () =
  let p = racy_case "adhoc_flag_w2/8" in
  Arde.Analysis_cache.clear ();
  let style = Arde.Lower.Realistic in
  let fresh = Arde.Lower.lower ~style p in
  ignore (Arde.Analysis_cache.lowered ~style p);
  let cached = Arde.Analysis_cache.lowered ~style p in
  Alcotest.(check string) "cached lowering = fresh lowering"
    (Arde.Pretty.program_to_string fresh)
    (Arde.Pretty.program_to_string cached)

let test_cache_hits_on_repeated_runs () =
  let p = racy_case "adhoc_flag_w2/8" in
  let options = O.make ~seeds:[ 1; 2; 3; 4; 5 ] ~fuel:100_000 () in
  Arde.Analysis_cache.clear ();
  Arde.Analysis_cache.reset_stats ();
  (* Nolib_spin lowers and instruments; the first run populates the
     prepared bundle (recording inner lower/instrument misses), and the
     repeat run is a single prepared hit that touches neither inner
     table. *)
  let run () =
    ignore
      (Arde.detect
         ~ctx:(Arde.Driver.ctx ~options ())
         ~mode:(Arde.Config.Nolib_spin 7) (Arde.Input.Program p))
  in
  run ();
  run ();
  let s = Arde.Analysis_cache.stats () in
  Alcotest.(check bool) "prepared cache hit" true
    (s.Arde.Analysis_cache.prepare_hits > 0);
  Alcotest.(check int) "one prepared miss" 1 s.Arde.Analysis_cache.prepare_misses;
  Alcotest.(check int) "inner misses recorded once" 1
    s.Arde.Analysis_cache.instrument_misses;
  (* The inner entries are warm too: a direct lookup (what `arde spin`
     and the benches do) hits without re-analyzing. *)
  ignore (Arde.Analysis_cache.lowered ~style:options.O.lower_style p);
  let s = Arde.Analysis_cache.stats () in
  Alcotest.(check bool) "lowering cache hit" true
    (s.Arde.Analysis_cache.lower_hits > 0)

(* Domains missing on one key together may each compute the bundle, but
   the first one published is what every caller gets, so they share one
   compiled machine (and its spin cache). *)
let test_racing_prepares_share_a_bundle () =
  let p = racy_case "adhoc_flag_w2/8" in
  Arde.Analysis_cache.clear ();
  let prepare () =
    Arde.Analysis_cache.prepare ~style:Arde.Lower.Realistic
      ~count_callees:true (Arde.Config.Nolib_spin 7) p
  in
  let got = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn prepare)) in
  let kept = prepare () in
  List.iter
    (fun (b : Arde.Analysis_cache.prepared) ->
      Alcotest.(check bool) "racer got the kept bundle" true (b == kept))
    got

(* The cache's keying: one digest per run, taken from the input. *)

module AC = Arde.Analysis_cache

let cache_delta f =
  let before = AC.stats () in
  let v = f () in
  (v, AC.stats_delta ~before ~after:(AC.stats ()))

let test_warm_predict_prepares_once () =
  let p = racy_case "adhoc_flag_w2/8" in
  let options =
    O.make ~seeds:[ 1; 2; 3 ] ~fuel:100_000 ()
    |> O.with_analysis O.Predict
  in
  let run input =
    Arde.detect ~ctx:(D.ctx ~options ()) ~mode:(Arde.Config.Helgrind_spin 7)
      input
  in
  List.iter
    (fun (label, input) ->
      AC.clear ();
      ignore (run input);
      let r, d = cache_delta (fun () -> run input) in
      Alcotest.(check bool) (label ^ ": predicted") true (r.D.prediction <> None);
      Alcotest.(check int) (label ^ ": one prepare hit") 1 d.AC.prepare_hits;
      Alcotest.(check int) (label ^ ": no prepare miss") 0 d.AC.prepare_misses)
    [
      ("program", Arde.Input.Program p);
      ("text", Arde.Input.Text (Arde.Pretty.program_to_string p));
    ]

(* A text input looks its bundle up by digest before parsing, so a hit
   parses nothing: a text that is not a program, run under the digest a
   real program primed, gives the primed run's bytes. *)
let test_text_hit_parses_nothing () =
  let p = racy_case "adhoc_flag_w2/8" in
  let options =
    O.make ~seeds:[ 1; 2; 3 ] ~fuel:100_000 () |> O.with_analysis O.Both
  in
  let d = Digest.string "primed under a caller-chosen digest" in
  let run text =
    cache_delta (fun () ->
        Arde.detect
          ~ctx:(D.ctx ~options ~program_digest:d ())
          ~mode:(Arde.Config.Helgrind_spin 7) (Arde.Input.Text text))
  in
  AC.clear ();
  let primed, _ = run (Arde.Pretty.program_to_string p) in
  let hit, delta = run "<not a program>" in
  Alcotest.(check string) "a hit gives the primed run's bytes"
    (J.to_string (D.result_to_json primed))
    (J.to_string (D.result_to_json hit));
  Alcotest.(check int) "one prepare hit" 1 delta.AC.prepare_hits;
  Alcotest.(check int) "no prepare miss" 0 delta.AC.prepare_misses

(* On a miss the text is parsed as before: an unparseable one still
   fails with the parser's message, and, since nothing was prepared,
   counts neither a prepare hit nor a miss. *)
let test_unparseable_text_fails_uncounted () =
  let text = "<not a program>" in
  let parser_msg =
    match Arde.Parse.program text with
    | Error e -> Arde.Parse.error_to_string e
    | Ok _ -> Alcotest.fail "the probe text parsed"
  in
  AC.clear ();
  let r, delta =
    cache_delta (fun () ->
        Arde.detect ~mode:(Arde.Config.Helgrind_spin 7) (Arde.Input.Text text))
  in
  Alcotest.(check bool) "failed" true (r.D.health.D.h_verdict = D.Failed);
  Alcotest.(check (list string)) "the parser's message"
    [ "pipeline: " ^ parser_msg ] r.D.health.D.h_notes;
  Alcotest.(check int) "no prepare hit" 0 delta.AC.prepare_hits;
  Alcotest.(check int) "no prepare miss" 0 delta.AC.prepare_misses

(* Same program text with a comment, blank lines and trailing blanks:
   a different digest, the same program. *)
let whitespace_variant text =
  "# a whitespace variant\n\n"
  ^ String.concat " \n" (String.split_on_char '\n' text)
  ^ "\n\n"

let test_input_kinds_agree () =
  let check_analysis analysis =
    let options =
      O.make ~seeds:[ 1; 2; 3 ] ~fuel:100_000 () |> O.with_analysis analysis
    in
    List.iter
      (fun (c : Arde_workloads.Racey.case) ->
        let text = Arde.Pretty.program_to_string c.program in
        List.iter
          (fun mode ->
            let bytes input =
              J.to_string
                (D.result_to_json
                   (Arde.detect ~ctx:(D.ctx ~options ()) ~mode input))
            in
            let want = bytes (Arde.Input.Program c.program) in
            let label kind =
              Printf.sprintf "%s under %s, %s: %s = program" c.name
                (Arde.Config.mode_name mode) (O.analysis_name analysis) kind
            in
            Alcotest.(check string) (label "canonical text") want
              (bytes (Arde.Input.Text text));
            Alcotest.(check string) (label "whitespace variant") want
              (bytes (Arde.Input.Text (whitespace_variant text))))
          Arde.Config.all_table1_modes)
      (catalog_sample ())
  in
  AC.clear ();
  check_analysis O.Sweep;
  check_analysis O.Predict

(* The inner tables share the prepare digest; the lowering style is part
   of both inner keys, so one text under two styles must not collide. *)
let test_styles_do_not_collide () =
  let text = Arde.Pretty.program_to_string (racy_case "lock_counter/4") in
  let run style =
    let options =
      O.make ~seeds:[ 1; 2; 3 ] ~fuel:100_000 () |> O.with_lower_style style
    in
    List.map
      (fun mode ->
        J.to_string
          (D.result_to_json
             (Arde.detect ~ctx:(D.ctx ~options ()) ~mode
                (Arde.Input.Text (whitespace_variant text)))))
      [ Arde.Config.Nolib_spin 7; Arde.Config.Nolib_spin_locks 7 ]
  in
  let styles = [ Arde.Lower.Compact; Arde.Lower.Realistic ] in
  AC.clear ();
  let cached = List.map run styles in
  let fresh =
    List.map
      (fun style ->
        AC.clear ();
        run style)
      styles
  in
  List.iter2
    (fun c f -> Alcotest.(check (list string)) "cached = uncached" f c)
    cached fresh;
  Alcotest.(check bool) "the styles lower differently" true
    (List.nth fresh 0 <> List.nth fresh 1)

(* [n] distinct small programs: the motivating flag handoff with a
   different initial value of its data cell. *)
let distinct_programs n =
  List.init n (fun i ->
      match
        Arde.Parse.program
          (Printf.sprintf
             "global flag[1] = 0\nglobal data[1] = %d\nentry = main\n\n\
              func main():\nentry:\n  %%t <- spawn worker()\n  join %%t\n  \
              exit\n\nfunc worker():\nentry:\n  store @flag, 1\n  exit\n"
             i)
      with
      | Ok p -> p
      | Error e -> Alcotest.fail (Arde.Parse.error_to_string e))

let test_inner_tables_evict_oldest () =
  let progs = distinct_programs (AC.max_inner + 1) in
  let first = List.hd progs and last = List.nth progs AC.max_inner in
  let style = Arde.Lower.Realistic in
  AC.clear ();
  List.iter
    (fun p ->
      ignore (AC.lowered ~style p);
      ignore (AC.instrumented ~count_callees:true ~k:7 p))
    progs;
  let _, d =
    cache_delta (fun () ->
        ignore (AC.lowered ~style last);
        ignore (AC.instrumented ~count_callees:true ~k:7 last))
  in
  Alcotest.(check (pair int int)) "newest entries stay" (1, 1)
    (d.AC.lower_hits, d.AC.instrument_hits);
  let _, d =
    cache_delta (fun () ->
        ignore (AC.lowered ~style first);
        ignore (AC.instrumented ~count_callees:true ~k:7 first))
  in
  Alcotest.(check (pair int int)) "oldest entries evicted" (1, 1)
    (d.AC.lower_misses, d.AC.instrument_misses);
  AC.clear ()

(* ------------------------------------------------------------------ *)
(* JSON wire forms                                                     *)

let test_json_value_roundtrip () =
  let v =
    J.Obj
      [
        ("null", J.Null);
        ("flag", J.Bool true);
        ("n", J.Int (-42));
        ("pi", J.Float 3.25);
        ("whole", J.Float 2.0);
        ("s", J.String "line\nbreak \"quoted\" \t tab \\ slash");
        ("xs", J.List [ J.Int 1; J.List []; J.Obj [] ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "minified round-trip" true (v = v')
  | Error e -> Alcotest.fail e);
  (match J.parse (J.to_string ~minify:false v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match J.parse "{\"unterminated\": " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad input parsed"

let test_report_json_roundtrip () =
  let r =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options:(O.make ~seeds:[ 1; 2; 3 ] ()) ())
      ~mode:Arde.Config.Helgrind_lib
      (Arde.Input.Program (racy_case "racy_counter/2"))
  in
  let merged = r.D.merged in
  Alcotest.(check bool) "report is non-trivial" true
    (Arde.Report.n_contexts merged > 0);
  match Arde.Report.of_json (Arde.Report.to_json merged) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check int) "contexts preserved"
        (Arde.Report.n_contexts merged)
        (Arde.Report.n_contexts back);
      Alcotest.(check bool) "races preserved" true
        (Arde.Report.races merged = Arde.Report.races back);
      Alcotest.(check string) "re-serialization is byte-identical"
        (J.to_string (Arde.Report.to_json merged))
        (J.to_string (Arde.Report.to_json back))

let test_health_json_roundtrip () =
  (* A degraded run gives the health record non-zero counters and
     notes. *)
  let options =
    Arde.Chaos.apply (O.make ~seeds:[ 1; 2; 3 ] ~fuel:60_000 ())
      (Arde.Chaos.Crash_at 30)
  in
  let r =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options ())
      ~mode:Arde.Config.Helgrind_lib
      (Arde.Input.Program (racy_case "racy_counter/2"))
  in
  let h = r.D.health in
  match D.health_of_json (D.health_to_json h) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check bool) "health round-trips" true (h = back)

(* ------------------------------------------------------------------ *)
(* Options construction API                                            *)

let test_options_api () =
  Alcotest.(check bool) "make () = default" true (O.make () = O.default);
  let o =
    O.default
    |> O.with_seed_count 4
    |> O.with_fuel 123
    |> O.with_jobs 3
    |> O.with_policy Arde.Sched.Uniform
  in
  Alcotest.(check (list int)) "with_seed_count" [ 1; 2; 3; 4 ] o.O.seeds;
  Alcotest.(check int) "with_fuel" 123 o.O.fuel;
  Alcotest.(check int) "with_jobs" 3 o.O.jobs;
  Alcotest.(check bool) "with_policy" true (o.O.policy = Arde.Sched.Uniform);
  Alcotest.(check bool) "make overrides" true
    ((O.make ~fuel:99 ()).O.fuel = 99)

let test_effective_jobs () =
  let with_jobs j = O.with_jobs j O.default in
  let host = O.default_jobs in
  Alcotest.(check int) "explicit width clamped to host and seeds"
    (max 1 (min (min 8 host) 3))
    (O.effective_jobs (with_jobs 8) ~n_seeds:3);
  Alcotest.(check int) "explicit width below seeds"
    (max 1 (min (min 2 host) 5))
    (O.effective_jobs (with_jobs 2) ~n_seeds:5);
  Alcotest.(check int) "at least one" 1
    (O.effective_jobs (with_jobs 4) ~n_seeds:0);
  Alcotest.(check int) "0 means hardware width (clamped)"
    (max 1 (min O.default_jobs 64))
    (O.effective_jobs (with_jobs 0) ~n_seeds:64);
  Alcotest.(check bool) "oversized request is reported as a clamp"
    (8 > host)
    (O.jobs_clamp (with_jobs 8) <> None);
  Alcotest.(check bool) "hardware default is never a clamp" true
    (O.jobs_clamp (with_jobs 0) = None);
  Alcotest.(check bool) "width 1 is never a clamp" true
    (O.jobs_clamp (with_jobs 1) = None)

(* A resident pool ignores [Options.jobs], so a run on one must not
   claim a clamp: a width beyond the host core count leaves no [jobs:]
   health note there, while a run that spawns its own domains keeps it. *)
let test_pool_run_records_no_clamp () =
  let p = (List.hd (Arde_workloads.Racey.all ())).Arde_workloads.Racey.program in
  let options =
    O.make ~seeds:[ 1; 2 ] ~fuel:50_000 () |> O.with_jobs (O.default_jobs + 1)
  in
  let jobs_notes ctx =
    let r = Arde.detect ~ctx (Arde.Input.Program p) in
    List.filter
      (fun n -> String.length n >= 5 && String.sub n 0 5 = "jobs:")
      r.D.health.D.h_notes
  in
  Alcotest.(check int) "spawned domains: one clamp note" 1
    (List.length (jobs_notes (D.ctx ~options ())));
  let pool = Arde.Domain_pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Arde.Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.(check (list string)) "resident pool: no clamp note" []
        (jobs_notes (D.ctx ~options ~pool ())))

(* ------------------------------------------------------------------ *)
(* The domain pool itself                                              *)

let test_domain_pool_map () =
  let xs = List.init 50 Fun.id in
  let expect = List.map (fun i -> i * i) xs in
  Alcotest.(check (list int)) "order preserved at jobs=4" expect
    (Arde.Domain_pool.map ~jobs:4 (fun i -> i * i) xs);
  Alcotest.(check (list int)) "jobs=1 is plain map" expect
    (Arde.Domain_pool.map ~jobs:1 (fun i -> i * i) xs)

let test_domain_pool_exception () =
  match
    Arde.Domain_pool.map ~jobs:4
      (fun i -> if i = 17 then failwith "boom" else i)
      (List.init 32 Fun.id)
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "exception surfaces" "boom" m

let suite =
  [
    Alcotest.test_case "jobs=1 = jobs=8 across the catalog" `Slow
      test_jobs_determinism;
    Alcotest.test_case "jobs=1 = jobs=8 under chaos injection" `Quick
      test_jobs_determinism_under_chaos;
    Alcotest.test_case "cached instrumentation = fresh" `Quick
      test_cache_matches_fresh_instrumentation;
    Alcotest.test_case "cached lowering = fresh" `Quick
      test_cache_matches_fresh_lowering;
    Alcotest.test_case "cache hits on repeated runs" `Quick
      test_cache_hits_on_repeated_runs;
    Alcotest.test_case "racing prepares share one bundle" `Quick
      test_racing_prepares_share_a_bundle;
    Alcotest.test_case "warm Predict run prepares once" `Quick
      test_warm_predict_prepares_once;
    Alcotest.test_case "a text hit parses nothing" `Quick
      test_text_hit_parses_nothing;
    Alcotest.test_case "unparseable text fails, uncounted" `Quick
      test_unparseable_text_fails_uncounted;
    Alcotest.test_case "text, variant text and program agree" `Slow
      test_input_kinds_agree;
    Alcotest.test_case "lowering styles never share an inner key" `Quick
      test_styles_do_not_collide;
    Alcotest.test_case "inner cache tables evict oldest" `Quick
      test_inner_tables_evict_oldest;
    Alcotest.test_case "JSON values round-trip" `Quick
      test_json_value_roundtrip;
    Alcotest.test_case "report JSON round-trips" `Quick
      test_report_json_roundtrip;
    Alcotest.test_case "health JSON round-trips" `Quick
      test_health_json_roundtrip;
    Alcotest.test_case "Options make/with_*" `Quick test_options_api;
    Alcotest.test_case "effective_jobs clamping" `Quick test_effective_jobs;
    Alcotest.test_case "a resident pool records no clamp" `Quick
      test_pool_run_records_no_clamp;
    Alcotest.test_case "domain pool preserves order" `Quick
      test_domain_pool_map;
    Alcotest.test_case "domain pool re-raises" `Quick
      test_domain_pool_exception;
  ]
