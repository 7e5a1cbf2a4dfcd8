(* Integration: the paper's headline shapes must hold on the bundled
   workloads.  These are the claims EXPERIMENTS.md records numerically;
   here we assert the qualitative orderings so regressions fail loudly. *)

module SE = Arde_harness.Suite_experiment
module Config = Arde.Config
module Classify = Arde.Classify

(* One shared suite run (3 seeds over 120 cases per mode). *)
let rows =
  lazy
    (let r, _ = SE.table1 () in
     r)

let tally mode =
  let r = List.find (fun m -> m.SE.mode = mode) (Lazy.force rows) in
  r.SE.tally

let test_spin_slashes_false_alarms () =
  let lib = tally Config.Helgrind_lib in
  let spin = tally (Config.Helgrind_spin 7) in
  Alcotest.(check bool) "most false alarms removed" true
    (spin.Classify.false_alarms * 3 < lib.Classify.false_alarms);
  Alcotest.(check bool) "no new misses beyond one or two" true
    (spin.Classify.missed <= lib.Classify.missed + 2)

let test_nolib_costs_little () =
  let spin = tally (Config.Helgrind_spin 7) in
  let nolib = tally (Config.Nolib_spin 7) in
  Alcotest.(check bool) "removing the library costs few false alarms" true
    (nolib.Classify.false_alarms - spin.Classify.false_alarms <= 2
     && nolib.Classify.false_alarms >= spin.Classify.false_alarms)

let test_drd_tradeoff () =
  let lib = tally Config.Helgrind_lib in
  let spin = tally (Config.Helgrind_spin 7) in
  let drd = tally Config.Drd in
  Alcotest.(check bool) "DRD misses the most races" true
    (drd.Classify.missed > lib.Classify.missed
     && drd.Classify.missed > spin.Classify.missed);
  Alcotest.(check bool) "DRD has fewer false alarms than the plain hybrid" true
    (drd.Classify.false_alarms <= lib.Classify.false_alarms)

let test_spin_mode_beats_everyone () =
  let spin = tally (Config.Helgrind_spin 7) in
  List.iter
    (fun mode ->
      let other = tally mode in
      Alcotest.(check bool)
        (Config.mode_name mode ^ " analyzed fewer cases correctly")
        true
        (spin.Classify.correct >= other.Classify.correct))
    [ Config.Helgrind_lib; Config.Nolib_spin 7; Config.Drd ]

let test_window_sweep_shape () =
  let krows, _ = SE.table2 () in
  let correct k =
    let r = List.find (fun m -> m.SE.mode = Config.Helgrind_spin k) krows in
    r.SE.tally.Classify.correct
  in
  Alcotest.(check bool) "k=3 < k=6 < k=7" true
    (correct 3 < correct 7 && correct 6 < correct 7 && correct 3 <= correct 6);
  Alcotest.(check int) "k=8 adds nothing over k=7" (correct 7) (correct 8)

(* ---- Table 1 with prediction on top ([--analysis both]) ---- *)

(* Predicting from the first two seeds adds the [inited] and [flag]
   false alarms EXPERIMENTS.md lists case by case and recovers one race
   per hybrid mode.  The tallies are pinned exactly, so any change in
   what the predictor reports on the suite shows here. *)
let both_rows =
  lazy
    (let options =
       Arde.Options.with_analysis Arde.Options.Both SE.suite_options
     in
     fst (SE.table1 ~options ()))

let both_row mode = List.find (fun m -> m.SE.mode = mode) (Lazy.force both_rows)

let test_table1_under_both () =
  List.iter
    (fun (mode, expected) ->
      let t = (both_row mode).SE.tally in
      Alcotest.(check (triple int int int))
        (Config.mode_name mode ^ " false alarms / missed / failed")
        expected
        (t.Classify.false_alarms, t.Classify.missed, Classify.failed t))
    [
      (Config.Helgrind_lib, (39, 5, 44));
      (Config.Helgrind_spin 7, (9, 5, 14));
      (Config.Nolib_spin 7, (9, 13, 22));
      (Config.Drd, (35, 13, 48));
    ];
  List.iter
    (fun (mode, name) ->
      let d =
        List.find
          (fun d -> d.SE.case.Arde_workloads.Racey.name = name)
          (both_row mode).SE.details
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s recovers %s" (Config.mode_name mode) name)
        true
        (d.SE.outcome = Classify.Correct))
    [
      (Config.Helgrind_lib, "racy_mixed_locks/2");
      (Config.Helgrind_spin 7, "racy_mixed_locks/2");
      (Config.Nolib_spin 7, "racy_cv_unlocked_pred/2");
    ]

(* ---- PARSEC shapes (single seed: fast) ---- *)

let parsec_contexts name mode =
  match Arde_workloads.Parsec.find name with
  | None -> Alcotest.failf "program %s missing" name
  | Some (info, program) ->
      let options =
        Arde.Options.make ~seeds:[ 1 ] ~sensitivity:Arde.Msm.Long_running
          ~lower_style:info.Arde_workloads.Parsec.nolib_style ~fuel:4_000_000
          ()
      in
      let result =
        Arde.detect ~ctx:(Arde.Driver.ctx ~options ()) ~mode
          (Arde.Input.Program program)
      in
      (List.hd result.Arde.Driver.runs).Arde.Driver.sr_contexts

let test_clean_programs_stay_clean () =
  List.iter
    (fun name ->
      List.iter
        (fun mode ->
          Alcotest.(check int)
            (Printf.sprintf "%s under %s" name (Config.mode_name mode))
            0
            (parsec_contexts name mode))
        Config.all_table1_modes)
    [ "blackscholes"; "swaptions"; "fluidanimate"; "canneal" ]

let test_freqmine_unknown_runtime () =
  Alcotest.(check bool) "invisible runtime floods the plain hybrid" true
    (parsec_contexts "freqmine" Config.Helgrind_lib > 50);
  Alcotest.(check bool) "spin detection recovers it" true
    (parsec_contexts "freqmine" (Config.Helgrind_spin 7) <= 6)

let test_dedup_signature () =
  (* The paper's sharpest row: hybrid floods, spin fixes, DRD is clean. *)
  Alcotest.(check bool) "hybrid saturates" true
    (parsec_contexts "dedup" Config.Helgrind_lib >= 900);
  Alcotest.(check int) "spin mode silent" 0
    (parsec_contexts "dedup" (Config.Helgrind_spin 7));
  Alcotest.(check int) "DRD silent (lock-order edges)" 0
    (parsec_contexts "dedup" Config.Drd)

let test_bodytrack_futex_residue () =
  (* CV gates over a futex-style runtime: the universal detector keeps
     most of the plain hybrid's noise, the spin-aware one drops it. *)
  let lib = parsec_contexts "bodytrack" Config.Helgrind_lib in
  let spin = parsec_contexts "bodytrack" (Config.Helgrind_spin 7) in
  let nolib = parsec_contexts "bodytrack" (Config.Nolib_spin 7) in
  Alcotest.(check bool) "spin mode almost clean" true (spin * 4 < lib);
  Alcotest.(check bool) "nolib retains most of the noise" true
    (nolib > spin && nolib > lib / 2)

let test_raytrace_universal_recovery () =
  Alcotest.(check bool) "unknown threading library floods the hybrid" true
    (parsec_contexts "raytrace" Config.Helgrind_lib > 50);
  Alcotest.(check int) "the universal detector recovers everything" 0
    (parsec_contexts "raytrace" (Config.Nolib_spin 7))

let suite =
  [
    Alcotest.test_case "spin detection slashes false alarms" `Slow
      test_spin_slashes_false_alarms;
    Alcotest.test_case "removing the library costs ~1 false alarm" `Slow
      test_nolib_costs_little;
    Alcotest.test_case "DRD trade-off (few FAs, many misses)" `Slow
      test_drd_tradeoff;
    Alcotest.test_case "lib+spin(7) is the best configuration" `Slow
      test_spin_mode_beats_everyone;
    Alcotest.test_case "window sweep: rise then plateau at 7" `Slow
      test_window_sweep_shape;
    Alcotest.test_case "Table 1 under --analysis both" `Slow
      test_table1_under_both;
    Alcotest.test_case "clean PARSEC programs stay clean" `Slow
      test_clean_programs_stay_clean;
    Alcotest.test_case "freqmine: unknown runtime recovered" `Slow
      test_freqmine_unknown_runtime;
    Alcotest.test_case "dedup: hybrid floods, spin and DRD silent" `Slow
      test_dedup_signature;
    Alcotest.test_case "bodytrack: futex runtime resists nolib" `Slow
      test_bodytrack_futex_residue;
    Alcotest.test_case "raytrace: universal detector recovers" `Slow
      test_raytrace_universal_recovery;
  ]
