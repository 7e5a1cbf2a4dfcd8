(* Sync-preserving race prediction: unit semantics of the closure on
   hand-built traces, the differential gate against the 16-seed sweep
   (the subsystem's correctness oracle, the way Engine_ref pins
   Engine), prediction over salvaged chaos/cancellation traces, and
   the predicted tag's wire form. *)

module D = Arde.Driver
module E = Arde.Event
module J = Arde.Json
module PB = Arde_harness.Predict_bench
module Report = Arde.Report
module Sp = Arde.Sp_predict
module W = Arde_workloads

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* -- hand-built traces through the predictor ----------------------- *)

let loc f i = { Arde.Types.lfunc = f; lblk = "e"; lidx = i }

let wr tid base base_id value i =
  E.Write
    { tid; base; base_id; idx = 0; value; loc = loc "w" i; kind = E.Plain }

let rd tid base base_id value i =
  E.Read
    {
      tid;
      base;
      base_id;
      idx = 0;
      value;
      loc = loc "r" i;
      kind = E.Plain;
      spin = [];
    }

let preamble = [ E.Thread_start { tid = 0 }; E.Spawn_ev { parent = 0; child = 1; loc = loc "m" 0 } ]
let postamble = [ E.Thread_exit { tid = 1 }; E.Thread_exit { tid = 0 } ]

let predict ?config events =
  Sp.predict ?config (Array.of_list (preamble @ events @ postamble))

let test_unit_racy_pair () =
  let races, stats =
    predict [ wr 0 "x" 0 1 0; E.Thread_start { tid = 1 }; wr 1 "x" 0 2 1 ]
  in
  checki "one race" 1 (List.length races);
  let r = List.hd races in
  Alcotest.(check string) "on x" "x" r.Sp.p_base;
  checkb "closure actually ran" true (stats.Sp.s_closure_runs > 0)

let test_unit_lock_protected () =
  let races, _ =
    predict
      [
        E.Lock_acq { tid = 0; base = "m"; idx = 0; loc = loc "w" 0 };
        wr 0 "x" 0 1 1;
        E.Lock_rel { tid = 0; base = "m"; idx = 0; loc = loc "w" 2 };
        E.Thread_start { tid = 1 };
        E.Lock_acq { tid = 1; base = "m"; idx = 0; loc = loc "r" 0 };
        wr 1 "x" 0 2 1;
        E.Lock_rel { tid = 1; base = "m"; idx = 0; loc = loc "r" 2 };
      ]
  in
  checki "mutual exclusion kills the pair" 0 (List.length races)

(* The ad-hoc handoff: the consumer's flag read observes the producer's
   flag write, so value preservation orders the data accesses — only
   the flag itself can race, and suppressing it (what the spin
   instrumentation vouches for) silences prediction entirely. *)
let flag_handoff =
  [
    wr 0 "data" 0 7 0;
    wr 0 "flag" 1 1 1;
    E.Thread_start { tid = 1 };
    rd 1 "flag" 1 1 0;
    rd 1 "data" 0 7 1;
  ]

let test_unit_adhoc_observation () =
  let races, _ = predict flag_handoff in
  List.iter
    (fun r ->
      if r.Sp.p_base = "data" then
        Alcotest.fail "predicted a race across the observed flag handoff")
    races;
  checkb "the unsuppressed flag itself races" true
    (List.exists (fun r -> r.Sp.p_base = "flag") races)

let test_unit_suppression () =
  let config =
    { Sp.default_config with Sp.suppress = (fun b -> b = "flag") }
  in
  let races, _ = predict ~config flag_handoff in
  checki "suppressed sync base predicts nothing" 0 (List.length races)

let test_unit_cv_synced () =
  let races, _ =
    predict
      [
        wr 0 "x" 0 1 0;
        E.Cv_signal
          {
            tid = 0;
            base = "cv";
            idx = 0;
            loc = loc "w" 1;
            broadcast = false;
            had_waiter = true;
          };
        E.Thread_start { tid = 1 };
        E.Cv_wait_begin { tid = 1; base = "cv"; idx = 0; loc = loc "r" 0 };
        E.Cv_wait_return { tid = 1; base = "cv"; idx = 0; loc = loc "r" 0 };
        rd 1 "x" 0 1 1;
      ]
  in
  checki "cv handoff kills the pair" 0 (List.length races)

(* -- the differential oracle --------------------------------------- *)

(* Catalog cases x Table-1 modes, sweep16 vs Predict-from-2: every
   context the sweep finds must appear in the predict run's merged
   report, and every predicted context must be vouched for by the
   sweep or by ground truth.  The bench harness computes exactly this;
   the test pins it on a representative slice. *)
let test_differential () =
  let t =
    PB.run ~repeats:1
      ~racy:
        [
          "racy_counter/2";
          "racy_flag_no_loop/2";
          "racy_mixed_locks/4";
          "racy_adhoc_broken/2";
          "racy_lock_ordered_w/2";
        ]
      ~race_free:[ "lock_counter/4"; "lock_flag_spin/2"; "double_checked_init/4" ]
      ~fuel:400_000 ~parsec_fuel:20_000 ()
  in
  List.iter
    (fun r ->
      let name = Printf.sprintf "%s under %s" r.PB.p_workload r.PB.p_mode in
      if r.PB.p_racy then
        checki (name ^ ": sweep contexts covered") 0 r.PB.p_missed;
      checki (name ^ ": predicted false positives") 0 r.PB.p_predicted_fp;
      checki
        (name ^ ": predict ran the promised execution budget")
        (min D.predict_limit 16) r.PB.p_predict_execs)
    t.PB.rows;
  checkb "at least 4x fewer executions per race" true
    (t.PB.summary.PB.s_reduction >= 4.)

(* -- salvaged traces ----------------------------------------------- *)

let racy_case name =
  match W.Racey.find name with
  | Some c -> c
  | None -> Alcotest.failf "no case %s" name

let record_trace ~options ~source case =
  match
    Arde.record
      ~ctx:(D.ctx ~options ())
      ~mode:(Arde.Config.Helgrind_spin 7) ~detect:true ~source
      (Arde.Input.Program case.W.Racey.program)
  with
  | Error e -> Alcotest.failf "record: %s" e
  | Ok { D.rec_trace; rec_result } -> (rec_trace, Option.get rec_result)

let predict_ctx =
  D.ctx
    ~options:(Arde.Options.with_analysis Arde.Options.Predict Arde.Options.default)
    ()

(* Chaos-crashed seeds leave partial (but sealed) sections; prediction
   over the salvaged trace must degrade the health verdict, never
   crash. *)
let test_predict_salvaged_chaos () =
  let case = racy_case "racy_counter/2" in
  let options =
    Arde.Chaos.apply
      (Arde.Options.make ~seeds:[ 1; 2; 3; 4 ] ~fuel:50_000 ())
      (Arde.Chaos.Crash_at 10)
  in
  let trace, live = record_trace ~options ~source:"chaos" case in
  checkb "chaos actually crashed a seed" true (live.D.health.D.h_crashed > 0);
  match Arde.Recorded.of_string trace with
  | Error e -> Alcotest.failf "salvaged trace failed to load: %s" e
  | Ok recorded ->
      let result =
        Arde.detect ~ctx:predict_ctx (Arde.Input.Recorded_trace recorded)
      in
      (* every seed of this short case crashes at event 10, so the
         verdict degrades all the way to Failed — either way it must
         not read Healthy, and prediction must survive the salvage *)
      checkb "crashed seeds degrade the verdict" true
        (result.D.health.D.h_verdict <> D.Healthy);
      checkb "prediction still ran" true (result.D.prediction <> None)

(* Cancelled seeds record empty sections; prediction skips them (they
   hold no events to predict from) and works with what completed. *)
let test_predict_salvaged_cancellation () =
  let case = racy_case "racy_counter/2" in
  let options = Arde.Options.make ~seeds:[ 1; 2; 3; 4 ] ~fuel:50_000 ~jobs:1 () in
  let fired = ref 0 in
  let should_stop () =
    incr fired;
    !fired > 1
  in
  match
    Arde.record
      ~ctx:(D.ctx ~options ~should_stop ())
      ~mode:(Arde.Config.Helgrind_spin 7) ~detect:true ~source:"cancel"
      (Arde.Input.Program case.W.Racey.program)
  with
  | Error e -> Alcotest.failf "record: %s" e
  | Ok { D.rec_trace; rec_result = Some live } -> (
      checkb "some seed was cancelled" true (live.D.health.D.h_cancelled > 0);
      match Arde.Recorded.of_string rec_trace with
      | Error e -> Alcotest.failf "salvaged trace failed to load: %s" e
      | Ok recorded -> (
          let result =
            Arde.detect ~ctx:predict_ctx (Arde.Input.Recorded_trace recorded)
          in
          checkb "cancelled seeds degrade the verdict" true
            (result.D.health.D.h_verdict = D.Degraded);
          match result.D.prediction with
          | None -> Alcotest.fail "prediction did not run"
          | Some p ->
              checkb "only completed sections consumed" true
                (p.D.pr_sections <= D.predict_limit)))
  | Ok { rec_result = None; _ } -> Alcotest.fail "no live result"

(* A corrupted section never reaches the predictor: the per-section
   hash fails the load outright, so nothing can be reported from
   unchecksummed events. *)
let test_predict_never_sees_corrupt_events () =
  let case = racy_case "racy_counter/2" in
  let options = Arde.Options.make ~seeds:[ 1; 2 ] ~fuel:50_000 () in
  let trace, _ = record_trace ~options ~source:"corrupt" case in
  let b = Bytes.of_string trace in
  (* flip one bit near the end of the body, inside section bytes *)
  let off = Bytes.length b - 16 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  match Arde.Recorded.of_string (Bytes.to_string b) with
  | Error _ -> ()
  | Ok recorded ->
      (* the flipped bit may land in a trailer field that still parses;
         what must never happen is a crash or a report sourced from a
         section whose hash does not match *)
      let result =
        Arde.detect ~ctx:predict_ctx (Arde.Input.Recorded_trace recorded)
      in
      ignore result.D.merged

(* -- live events = decoded sections --------------------------------- *)

let result_bytes r = J.to_string (D.result_to_json r)

(* Record a run (the record-only path: injector and sink, no engine),
   load the trace back, and predict from it: the codec round trip a live
   prediction no longer makes. *)
let replayed_prediction ?should_stop ~options ~mode program =
  match
    Arde.record
      ~ctx:(D.ctx ~options ?should_stop ())
      ~mode (Arde.Input.Program program)
  with
  | Error e -> Alcotest.failf "record: %s" e
  | Ok { D.rec_trace; _ } -> (
      match Arde.Recorded.of_string rec_trace with
      | Error e -> Alcotest.failf "recording failed to load: %s" e
      | Ok recorded ->
          Arde.detect ~ctx:predict_ctx (Arde.Input.Recorded_trace recorded))

let take n xs = List.filteri (fun i _ -> i < n) xs

(* A live [Predict] or [Both] run predicts from the events its seeds'
   engines saw, collected in memory; predicting from the sections a
   recording of the same run decodes must give the same bytes.  The
   chaos case crashes every seed mid-run, which pins the collector
   between the injector and the engine, where the codec sink sits. *)
let test_live_events_equal_decoded_sections () =
  let base = Arde.Options.make ~seeds:[ 1; 2; 3 ] ~fuel:100_000 () in
  let slice = List.filteri (fun i _ -> i mod 12 = 0) (W.Racey.all ()) in
  let crashing =
    ( Arde.Chaos.apply base (Arde.Chaos.Crash_at 20),
      [ racy_case "racy_counter/2" ] )
  in
  List.iter
    (fun (options, cases) ->
      let first =
        Arde.Options.with_seeds
          (take D.predict_limit options.Arde.Options.seeds)
          options
      in
      List.iter
        (fun (c : W.Racey.case) ->
          List.iter
            (fun mode ->
              let live analysis =
                Arde.detect
                  ~ctx:
                    (D.ctx
                       ~options:(Arde.Options.with_analysis analysis options)
                       ())
                  ~mode (Arde.Input.Program c.W.Racey.program)
              in
              let label analysis =
                Printf.sprintf "%s under %s, %s%s: live = recorded" c.W.Racey.name
                  (Arde.Config.mode_name mode)
                  (Arde.Options.analysis_name analysis)
                  (if options.Arde.Options.inject = None then "" else ", crash_at 20")
              in
              let predicted = live Arde.Options.Predict in
              checkb (label Arde.Options.Predict ^ " (predicted)") true
                (predicted.D.prediction <> None);
              Alcotest.(check string) (label Arde.Options.Predict)
                (result_bytes
                   (replayed_prediction ~options:first ~mode c.W.Racey.program))
                (result_bytes predicted);
              Alcotest.(check string) (label Arde.Options.Both)
                (result_bytes (replayed_prediction ~options ~mode c.W.Racey.program))
                (result_bytes (live Arde.Options.Both)))
            [ Arde.Config.Helgrind_spin 7; Arde.Config.Nolib_spin 7 ])
        cases)
    [ (base, slice); crashing ];
  let crashed =
    Arde.detect
      ~ctx:(D.ctx ~options:(Arde.Options.with_analysis Arde.Options.Predict (fst crashing)) ())
      ~mode:(Arde.Config.Helgrind_spin 7)
      (Arde.Input.Program (racy_case "racy_counter/2").W.Racey.program)
  in
  checkb "the chaos case crashes its seeds" true
    (crashed.D.health.D.h_crashed > 0)

(* The predicted seeds are those at the first [predict_limit] positions
   of the seed list; a cancelled one among them is skipped, not replaced
   by a later seed.  Cancelling only the first of four seeds therefore
   leaves one seed to predict from — live, and from a recording of the
   same run. *)
let test_cancelled_predicted_seed_not_replaced () =
  let case = racy_case "racy_counter/2" in
  let options = Arde.Options.make ~seeds:[ 1; 2; 3; 4 ] ~fuel:50_000 ~jobs:1 () in
  let mode = Arde.Config.Helgrind_spin 7 in
  let stop_first_seed () =
    let calls = ref 0 in
    fun () ->
      incr calls;
      !calls = 1
  in
  let live =
    Arde.detect
      ~ctx:
        (D.ctx
           ~options:(Arde.Options.with_analysis Arde.Options.Both options)
           ~should_stop:(stop_first_seed ()) ())
      ~mode (Arde.Input.Program case.W.Racey.program)
  in
  checki "one seed cancelled" 1 live.D.health.D.h_cancelled;
  checki "three seeds finished" 3 live.D.health.D.h_finished;
  (match live.D.prediction with
  | Some p -> checki "only the second seed predicted" 1 p.D.pr_sections
  | None -> Alcotest.fail "no prediction");
  Alcotest.(check string) "a recording of the run predicts the same"
    (result_bytes
       (replayed_prediction ~should_stop:(stop_first_seed ()) ~options ~mode
          case.W.Racey.program))
    (result_bytes live)

(* -- the wire form -------------------------------------------------- *)

let fixture_race predicted =
  {
    Report.r_base = "x";
    r_idx = 0;
    r_first_tid = 1;
    r_first_loc = loc "w" 3;
    r_first_write = true;
    r_second_tid = 2;
    r_second_loc = loc "r" 5;
    r_second_write = false;
    r_predicted = predicted;
  }

let contains ~affix s = Astring.String.is_infix ~affix s

let test_race_json_roundtrip () =
  List.iter
    (fun predicted ->
      let r = fixture_race predicted in
      match Report.race_of_json (Report.race_to_json r) with
      | Ok r' -> checkb "race round-trips" true (r = r')
      | Error e -> Alcotest.failf "race_of_json: %s" e)
    [ true; false ];
  (* the tag is emitted only when set, keeping observed races (and
     every pinned sweep document) byte-identical to before *)
  checkb "observed race carries no tag" false
    (contains ~affix:"predicted"
       (J.to_string (Report.race_to_json (fixture_race false))));
  checkb "predicted race carries the tag" true
    (contains ~affix:{|"predicted"|}
       (J.to_string (Report.race_to_json (fixture_race true))))

let test_report_json_roundtrip () =
  let t = Report.create () in
  Report.add t (fixture_race false);
  Report.add t (fixture_race true);
  (* same context: the merge keeps the first representative *)
  let t2 = Report.create () in
  Report.add t2 (fixture_race true);
  List.iter
    (fun report ->
      match Report.of_json (Report.to_json report) with
      | Ok back ->
          checkb "report round-trips the tag" true
            (Report.races back = Report.races report)
      | Error e -> Alcotest.failf "Report.of_json: %s" e)
    [ t; t2 ]

let test_options_json_roundtrip () =
  let o =
    Arde.Options.with_analysis Arde.Options.Predict Arde.Options.default
  in
  (match Arde.Options.of_json (Arde.Options.to_json o) with
  | Ok o' ->
      checkb "analysis survives the wire" true
        (o'.Arde.Options.analysis = Arde.Options.Predict)
  | Error e -> Alcotest.failf "Options.of_json: %s" e);
  checkb "default options emit no analysis field" false
    (contains ~affix:"analysis"
       (J.to_string (Arde.Options.to_json Arde.Options.default)))

let test_result_json_shape () =
  let case = racy_case "racy_counter/2" in
  let options =
    Arde.Options.make ~seeds:(List.init 16 (fun i -> i + 1)) ~fuel:400_000 ()
  in
  let sweep =
    Arde.detect
      ~ctx:(D.ctx ~options ())
      ~mode:(Arde.Config.Helgrind_spin 7)
      (Arde.Input.Program case.W.Racey.program)
  in
  checkb "sweep results carry no prediction object" false
    (contains ~affix:"prediction" (J.to_string (D.result_to_json sweep)));
  let pred =
    Arde.detect
      ~ctx:
        (D.ctx
           ~options:(Arde.Options.with_analysis Arde.Options.Predict options)
           ())
      ~mode:(Arde.Config.Helgrind_spin 7)
      (Arde.Input.Program case.W.Racey.program)
  in
  let j = J.to_string (D.result_to_json pred) in
  checkb "predict results carry the prediction object" true
    (contains ~affix:{|"prediction"|} j);
  (* and the merged report round-trips through the documented decoder,
     predicted tags included *)
  match Report.of_json (Report.to_json pred.D.merged) with
  | Ok back ->
      checkb "merged report round-trips" true
        (Report.races back = Report.races pred.D.merged)
  | Error e -> Alcotest.failf "Report.of_json on a predict run: %s" e

let suite =
  [
    Alcotest.test_case "unit: unsynchronized pair predicted" `Quick
      test_unit_racy_pair;
    Alcotest.test_case "unit: lock-protected pair rejected" `Quick
      test_unit_lock_protected;
    Alcotest.test_case "unit: observation preserves ad-hoc handoff" `Quick
      test_unit_adhoc_observation;
    Alcotest.test_case "unit: sync-base suppression" `Quick
      test_unit_suppression;
    Alcotest.test_case "unit: cv handoff rejected" `Quick test_unit_cv_synced;
    Alcotest.test_case "differential: predict-from-2 vs the 16-seed sweep"
      `Slow test_differential;
    Alcotest.test_case "prediction over chaos-salvaged traces" `Quick
      test_predict_salvaged_chaos;
    Alcotest.test_case "prediction over cancelled recordings" `Quick
      test_predict_salvaged_cancellation;
    Alcotest.test_case "live events = decoded sections" `Slow
      test_live_events_equal_decoded_sections;
    Alcotest.test_case "a cancelled predicted seed is not replaced" `Quick
      test_cancelled_predicted_seed_not_replaced;
    Alcotest.test_case "corrupt sections never reach the predictor" `Quick
      test_predict_never_sees_corrupt_events;
    Alcotest.test_case "predicted tag round-trips race json" `Quick
      test_race_json_roundtrip;
    Alcotest.test_case "predicted tag round-trips report json" `Quick
      test_report_json_roundtrip;
    Alcotest.test_case "analysis knob round-trips options json" `Quick
      test_options_json_roundtrip;
    Alcotest.test_case "result json: prediction object and tags" `Quick
      test_result_json_shape;
  ]
