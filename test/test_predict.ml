(* Sync-preserving race prediction: unit semantics of the closure on
   hand-built traces, the differential gate against the 16-seed sweep
   (the subsystem's correctness oracle, the way Engine_ref pins
   Engine), prediction over salvaged chaos/cancellation traces, and
   the predicted tag's wire form. *)

module D = Arde.Driver
module E = Arde.Event
module J = Arde.Json
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

(* An event the scan cannot place (a join on a thread id beyond
   [max_threads]) poisons a streaming predictor instead of raising out
   of [observe], which sits in front of a seed's engine; the events
   after it are ignored and [finish] reports the failure.  The array
   entry point, a fold over the same stream, raises it too. *)
let test_unit_fail_open () =
  let bad =
    E.Join_return
      { tid = 0; target = Arde.Types.max_threads; loc = loc "m" 1 }
  in
  let stream =
    preamble
    @ [ wr 0 "x" 0 1 0; bad; E.Thread_start { tid = 1 }; wr 1 "x" 0 2 1 ]
    @ postamble
  in
  let sp = Sp.create () in
  List.iter (Sp.observe sp) stream;
  (match Sp.finish sp with
  | _ -> Alcotest.fail "finish reported no failure"
  | exception Invalid_argument _ -> ());
  match Sp.predict (Array.of_list stream) with
  | _ -> Alcotest.fail "predict reported no failure"
  | exception Invalid_argument _ -> ()

(* -- the differential oracle --------------------------------------- *)

let racy_case name =
  match W.Racey.find name with
  | Some c -> c
  | None -> Alcotest.failf "no case %s" name

(* A context key matching the merge's identity: base plus the unordered
   pair of access locations. *)
let context_key (r : Report.race) =
  let a = r.Report.r_first_loc and b = r.Report.r_second_loc in
  let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
  (r.Report.r_base, lo, hi)

(* One case per racy family that manifests within the 16-seed budget
   (racy_rare_path's x-race never does, so the sweep side would have
   nothing extra to cover), plus repeats at other thread counts for the
   families where the schedule space grows with threads. *)
let differential_racy =
  [
    "racy_counter/2";
    "racy_counter/16";
    "racy_flag_no_loop/2";
    "racy_mixed_locks/4";
    "racy_lock_ordered_w/2";
    "racy_lock_ordered_r/2";
    "racy_read_write/8";
    "racy_adhoc_broken/2";
    "racy_after_join_wrong/2";
    "racy_barrier_missing/4";
  ]

(* Library sync plus the ad-hoc constructs the spin instrumentation
   vouches for — the cases where a predicted race would be a predicted
   false positive. *)
let differential_race_free =
  [
    "lock_counter/4";
    "cv_handoff/2";
    "barrier_phases/4";
    "lock_flag_spin/2";
    "guarded_queue/3";
    "double_checked_init/4";
  ]

(* Catalog cases x Table-1 modes, sweep16 vs Predict-from-2: every
   context the sweep finds must appear in the predict run's merged
   report, and every predicted context must be vouched for by the sweep
   or by ground truth.  A predicted context the sweep also finds (even a
   detector false alarm, like double-checked locking under lockset
   modes) is prediction agreeing with the detector it stands in for; a
   fresh context on a ground-truth racy base is predictive headroom — a
   real race the sixteen schedules happened to miss.  On race-free cases
   the second arm is empty, so this is exactly "zero predicted false
   positives".  Across the racy cases, executions per racy context must
   drop at least 4x. *)
let test_differential () =
  let options =
    Arde.Options.make ~seeds:(List.init 16 (fun i -> i + 1)) ~fuel:400_000 ()
  in
  let poptions = Arde.Options.with_analysis Arde.Options.Predict options in
  let sweep_execs = ref 0 and sweep_contexts = ref 0 in
  let predict_execs = ref 0 and predict_contexts = ref 0 in
  List.iter
    (fun name ->
      let case = racy_case name in
      let input = Arde.Input.Program case.W.Racey.program in
      let racy, truth_bases =
        match case.W.Racey.expectation with
        | Arde.Classify.Racy bases -> (true, bases)
        | _ -> (false, [])
      in
      List.iter
        (fun mode ->
          let label what =
            Printf.sprintf "%s under %s: %s" name
              (Arde.Config.mode_name mode) what
          in
          let sweep = Arde.detect ~ctx:(D.ctx ~options ()) ~mode input in
          let pred = Arde.detect ~ctx:(D.ctx ~options:poptions ()) ~mode input in
          let sweep_keys = List.map context_key (Report.races sweep.D.merged) in
          let pred_keys = List.map context_key (Report.races pred.D.merged) in
          if racy then begin
            checki (label "sweep contexts covered") 0
              (List.length
                 (List.filter (fun k -> not (List.mem k pred_keys)) sweep_keys));
            sweep_execs := !sweep_execs + List.length sweep.D.runs;
            sweep_contexts :=
              !sweep_contexts + Report.n_contexts sweep.D.merged;
            predict_execs := !predict_execs + List.length pred.D.runs;
            predict_contexts :=
              !predict_contexts + Report.n_contexts pred.D.merged
          end;
          checki (label "predicted false positives") 0
            (List.length
               (List.filter
                  (fun r ->
                    r.Report.r_predicted
                    && (not (List.mem (context_key r) sweep_keys))
                    && not (List.mem r.Report.r_base truth_bases))
                  (Report.races pred.D.merged)));
          checki
            (label "predict ran the promised execution budget")
            (min D.predict_limit 16) (List.length pred.D.runs))
        Arde.Config.all_table1_modes)
    (differential_racy @ differential_race_free);
  let per execs contexts =
    if contexts = 0 then 0. else float_of_int execs /. float_of_int contexts
  in
  let predict_per = per !predict_execs !predict_contexts in
  let reduction =
    if predict_per > 0. then per !sweep_execs !sweep_contexts /. predict_per
    else 0.
  in
  checkb
    (Printf.sprintf "at least 4x fewer executions per race (%.2fx)" reduction)
    true (reduction >= 4.)

(* -- salvaged traces ----------------------------------------------- *)

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
   engines saw, streamed into its predictors; predicting from the
   sections a recording of the same run decodes must give the same
   bytes.  The chaos case crashes every seed mid-run, which pins the
   predictor between the injector and the engine, where the codec sink
   sits. *)
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

(* -- the streaming predictor = the array entry point ---------------- *)

let race_of_predicted (p : Sp.race) =
  {
    Report.r_base = p.Sp.p_base;
    r_idx = p.Sp.p_idx;
    r_first_tid = p.Sp.p_first_tid;
    r_first_loc = p.Sp.p_first_loc;
    r_first_write = p.Sp.p_first_write;
    r_second_tid = p.Sp.p_second_tid;
    r_second_loc = p.Sp.p_second_loc;
    r_second_write = p.Sp.p_second_write;
    r_predicted = true;
  }

let report_bytes r = J.to_string (Report.to_json r)
let spin_modes = [ Arde.Config.Helgrind_spin 7; Arde.Config.Nolib_spin 7 ]

(* A live [Predict] run streams each predicted seed's events into its
   predictor through the tap.  The injector hook is teed in ahead of the
   tap, so it sees the same stream: collected there with [Trace.push]
   and handed to [Sp.predict], it must give the races and statistics
   the live run reports — the predicted races merged after the observed
   ones of the same two seeds, and the summed [prediction] record.
   PARSEC with the benchmark's knobs, and the whole Racey catalog, each
   under the Table-1 spin modes. *)
let test_streaming_equals_array () =
  let parsec =
    List.map
      (fun ((info : W.Parsec.info), program) ->
        ( info.W.Parsec.pname,
          program,
          Arde.Options.make ~sensitivity:Arde.Msm.Long_running
            ~lower_style:info.W.Parsec.nolib_style ~fuel:4_000_000
            ~seeds:[ 1; 2 ] ~jobs:1 () ))
      (W.Parsec.all ())
  in
  let racey =
    List.map
      (fun (c : W.Racey.case) ->
        ( c.W.Racey.name,
          c.W.Racey.program,
          Arde.Options.make ~seeds:[ 1; 2 ] ~fuel:200_000 ~jobs:1 () ))
      (W.Racey.all ())
  in
  let predicted_somewhere = ref 0 in
  List.iter
    (fun (name, program, options) ->
      List.iter
        (fun mode ->
          let label what =
            Printf.sprintf "%s under %s: %s" name
              (Arde.Config.mode_name mode) what
          in
          let run options =
            Arde.detect ~ctx:(D.ctx ~options ()) ~mode
              (Arde.Input.Program program)
          in
          let collected = Hashtbl.create 2 in
          let inject ~seed =
            let buf = Arde.Trace.create () in
            Hashtbl.replace collected seed buf;
            Arde.Trace.push buf
          in
          let live =
            run
              (options
              |> Arde.Options.with_analysis Arde.Options.Predict
              |> Arde.Options.with_inject (Some inject))
          in
          let p =
            Arde.Analysis_cache.prepare
              ~style:options.Arde.Options.lower_style
              ~count_callees:options.Arde.Options.count_callee_blocks mode
              program
          in
          let suppress =
            match p.Arde.Analysis_cache.p_instrument with
            | Some inst -> Arde.Instrument.is_sync_base inst
            | None -> fun _ -> false
          in
          let per_seed =
            List.map
              (fun seed ->
                Sp.predict
                  ~config:{ Sp.default_config with Sp.suppress }
                  (Arde.Trace.events (Hashtbl.find collected seed)))
              options.Arde.Options.seeds
          in
          let merged = (run options).D.merged in
          let before = Report.n_contexts merged in
          List.iter
            (fun (races, _) ->
              List.iter
                (fun r -> Report.add merged (race_of_predicted r))
                races)
            per_seed;
          Alcotest.(check string) (label "merged report")
            (report_bytes merged) (report_bytes live.D.merged);
          let sum f =
            List.fold_left (fun acc (_, st) -> acc + f st) 0 per_seed
          in
          match live.D.prediction with
          | None -> Alcotest.fail (label "no prediction")
          | Some pr ->
              predicted_somewhere := !predicted_somewhere + pr.D.pr_predicted;
              checki (label "sections") (List.length per_seed) pr.D.pr_sections;
              checki (label "events")
                (sum (fun st -> st.Sp.s_events))
                pr.D.pr_events;
              checki (label "candidates")
                (sum (fun st -> st.Sp.s_candidates)) pr.D.pr_candidates;
              checki (label "predicted")
                (sum (fun st -> st.Sp.s_predicted)) pr.D.pr_predicted;
              checki (label "closure steps")
                (sum (fun st -> st.Sp.s_closure_steps)) pr.D.pr_closure_steps;
              checki (label "budget hits")
                (sum (fun st -> st.Sp.s_budget_hits)) pr.D.pr_budget_hits;
              checki (label "new contexts")
                (Report.n_contexts merged - before) pr.D.pr_new_contexts;
              checkb (label "no skip notes") true (pr.D.pr_notes = []))
        spin_modes)
    (parsec @ racey);
  checkb "some run predicted races" true (!predicted_somewhere > 0)

(* -- fail-open at the driver --------------------------------------- *)

(* A seed whose predictor fails is skipped with a note, and the run's
   detection is untouched.  A live run cannot reach this case (the
   machine emits no event the scan cannot place), so it is built from a
   recording: each section gets a join on an out-of-range thread after
   its first event.  The nolib mode's engine ignores library joins, so
   only the predictor sees the doctored event; predicting over the
   recording must then report the same bytes as sweeping it, apart from
   the prediction object, which carries one skip note per seed. *)
let test_driver_fail_open () =
  let case = racy_case "racy_counter/2" in
  let mode = Arde.Config.Nolib_spin 7 in
  let options = Arde.Options.make ~seeds:[ 1; 2 ] ~fuel:50_000 () in
  let trace =
    match
      Arde.record ~ctx:(D.ctx ~options ()) ~mode
        (Arde.Input.Program case.W.Racey.program)
    with
    | Ok { D.rec_trace; _ } -> rec_trace
    | Error e -> Alcotest.failf "record: %s" e
  in
  let module C = Arde.Trace_codec in
  let header, sections =
    match C.read_sections trace with
    | Ok v -> v
    | Error e -> Alcotest.failf "read: %s" (C.error_to_string e)
  in
  let bad =
    E.Join_return
      { tid = 0; target = Arde.Types.max_threads; loc = loc "main" 0 }
  in
  let doctor (sec : C.section) =
    let sink = C.sink () in
    let out = C.sink_observer sink in
    let n = ref 0 in
    (match
       C.decode_events sec (fun ev ->
           out ev;
           incr n;
           if !n = 1 then out bad)
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decode: %s" (C.error_to_string e));
    C.section_of_sink sink ~seed:sec.C.s_seed sec.C.s_trailer
  in
  let recorded =
    match
      Arde.Recorded.of_string (C.assemble header (List.map doctor sections))
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "doctored recording failed to load: %s" e
  in
  let replay analysis =
    Arde.detect
      ~ctx:
        (D.ctx
           ~options:(Arde.Options.with_analysis analysis Arde.Options.default)
           ())
      (Arde.Input.Recorded_trace recorded)
  in
  let swept = replay Arde.Options.Sweep in
  let predicted = replay Arde.Options.Predict in
  checki "no seed crashed" 0 swept.D.health.D.h_crashed;
  Alcotest.(check string) "detection unchanged" (result_bytes swept)
    (result_bytes { predicted with D.prediction = None });
  match predicted.D.prediction with
  | None -> Alcotest.fail "no prediction"
  | Some pr ->
      checki "nothing predicted from" 0 pr.D.pr_sections;
      Alcotest.(check (list string))
        "one skip note per seed"
        [
          "predict: seed 1 skipped: index out of bounds";
          "predict: seed 2 skipped: index out of bounds";
        ]
        pr.D.pr_notes

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

(* -- the per-domain workspace ---------------------------------------- *)

(* The events and predictor config of seeds 1 and 2 of a PARSEC program
   under lib+spin(7), with the benchmark's knobs: collected by the
   injector hook, as [test_streaming_equals_array] does. *)
let parsec_streams name =
  let info, program =
    match W.Parsec.find name with
    | Some v -> v
    | None -> Alcotest.failf "no PARSEC program %s" name
  in
  let mode = Arde.Config.Helgrind_spin 7 in
  let options =
    Arde.Options.make ~sensitivity:Arde.Msm.Long_running
      ~lower_style:info.W.Parsec.nolib_style ~fuel:4_000_000 ~seeds:[ 1; 2 ]
      ~jobs:1 ()
  in
  let collected = Hashtbl.create 2 in
  let inject ~seed =
    let buf = Arde.Trace.create () in
    Hashtbl.replace collected seed buf;
    Arde.Trace.push buf
  in
  ignore
    (Arde.detect
       ~ctx:(D.ctx ~options:(Arde.Options.with_inject (Some inject) options) ())
       ~mode (Arde.Input.Program program));
  let p =
    Arde.Analysis_cache.prepare ~style:options.Arde.Options.lower_style
      ~count_callees:options.Arde.Options.count_callee_blocks mode program
  in
  let suppress =
    match p.Arde.Analysis_cache.p_instrument with
    | Some inst -> Arde.Instrument.is_sync_base inst
    | None -> fun _ -> false
  in
  List.map
    (fun seed ->
      ( Printf.sprintf "%s seed %d" name seed,
        { Sp.default_config with Sp.suppress },
        Arde.Trace.events (Hashtbl.find collected seed) ))
    [ 1; 2 ]

(* A warm predictor allocates next to nothing: after one pass over the
   streams has grown the domain's workspace to the largest of them,
   predicting each again takes no word straight in the major heap and
   at most 4 words per event in all.  [Gc.counters] is exact only when
   no minor collection falls inside the measurement, so the minor heap
   is made larger than the whole budget for the duration. *)
let test_allocation_budget () =
  let streams = parsec_streams "dedup" @ parsec_streams "x264" in
  let predict_all () =
    List.map (fun (_, config, evs) -> Sp.predict ~config evs) streams
  in
  let warm = predict_all () in
  let control = Gc.get () in
  Gc.set { control with Gc.minor_heap_size = 1 lsl 20 };
  Fun.protect
    ~finally:(fun () -> Gc.set control)
    (fun () ->
      let words = ref 0. and events = ref 0 in
      List.iter2
        (fun (label, config, evs) expected ->
          Gc.minor ();
          let minor0, promoted0, major0 = Gc.counters () in
          let result = Sp.predict ~config evs in
          let minor1, promoted1, major1 = Gc.counters () in
          let direct = major1 -. major0 -. (promoted1 -. promoted0) in
          checkb (label ^ ": same result as the first pass") true
            (result = expected);
          Alcotest.(check (float 0.)) (label ^ ": direct major words") 0. direct;
          words := !words +. (minor1 -. minor0) +. direct;
          events := !events + Array.length evs)
        streams warm;
      let per_event = !words /. float_of_int !events in
      checkb
        (Printf.sprintf "at most 4 words per event (%.2f over %d events)"
           per_event !events)
        true (per_event <= 4.))

(* What a domain predicted before cannot leak into what it predicts
   next.  On a domain of its own, one seed's predictor is poisoned
   mid-stream and another's dropped unfinished (each keeps the workspace
   it took), then two seeds of different programs run in turn, the
   second on the workspace the first handed back: both must equal a
   prediction on a domain that never predicted before — as from a
   fresh process. *)
let test_workspace_reuse () =
  let _, config_a, a = List.hd (parsec_streams "dedup") in
  let _, config_b, b = List.hd (parsec_streams "x264") in
  let fresh config evs = Domain.join (Domain.spawn (fun () -> Sp.predict ~config evs)) in
  let want_a = fresh config_a a and want_b = fresh config_b b in
  let half evs = Array.sub evs 0 (Array.length evs / 2) in
  let bad =
    E.Join_return { tid = 0; target = Arde.Types.max_threads; loc = loc "m" 1 }
  in
  let got_a, got_b =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (Sp.predict ~config:config_b b);
           let poisoned = Sp.create ~config:config_a () in
           Array.iter (Sp.observe poisoned) (half a);
           Sp.observe poisoned bad;
           Array.iter (Sp.observe poisoned) a;
           (match Sp.finish poisoned with
           | _ -> Alcotest.fail "the poisoned predictor finished"
           | exception Invalid_argument _ -> ());
           let dropped = Sp.create ~config:config_b () in
           Array.iter (Sp.observe dropped) (half b);
           let got_a = Sp.predict ~config:config_a a in
           let got_b = Sp.predict ~config:config_b b in
           (got_a, got_b)))
  in
  checkb "dedup after a poisoned and a dropped predictor" true (got_a = want_a);
  checkb "x264 on the workspace dedup handed back" true (got_b = want_b);
  checkb "x264 predicted something to compare" true
    ((snd want_b).Sp.s_candidates > 0)

(* A workspace a seed grew past [Sp.retention_cap] slots is dropped
   when the seed finishes, not kept for the next one: one write at
   index [retention_cap] gives its base a row that long.  A seed of
   ordinary size is kept again afterwards, and predicts as on a fresh
   domain. *)
let test_bounded_retention () =
  let write_at idx =
    E.Write
      { tid = 1; base = "x"; base_id = 0; idx; value = 1; loc = loc "w" 1;
        kind = E.Plain }
  in
  let small = [ wr 0 "x" 0 1 0; E.Thread_start { tid = 1 }; wr 1 "x" 0 2 1 ] in
  let want = predict small in
  let retained, after_big, again, result =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (predict small);
           let retained = Sp.retained () in
           ignore (predict [ E.Thread_start { tid = 1 }; write_at Sp.retention_cap ]);
           let after_big = Sp.retained () in
           let result = predict small in
           (retained, after_big, Sp.retained (), result)))
  in
  checkb "an ordinary seed's workspace is kept" true
    (retained > 0 && retained <= Sp.retention_cap);
  checki "an oversized workspace is dropped" 0 after_big;
  checkb "the next seed's workspace is kept again" true
    (again > 0 && again <= Sp.retention_cap);
  checkb "and predicts as on a fresh domain" true (result = want)

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
    Alcotest.test_case "unit: a failing stream poisons, never raises" `Quick
      test_unit_fail_open;
    Alcotest.test_case "differential: predict-from-2 vs the 16-seed sweep"
      `Slow test_differential;
    Alcotest.test_case "prediction over chaos-salvaged traces" `Quick
      test_predict_salvaged_chaos;
    Alcotest.test_case "prediction over cancelled recordings" `Quick
      test_predict_salvaged_cancellation;
    Alcotest.test_case "live events = decoded sections" `Slow
      test_live_events_equal_decoded_sections;
    Alcotest.test_case "streaming predictor = the array entry point" `Slow
      test_streaming_equals_array;
    Alcotest.test_case "a failed predictor leaves detection untouched" `Quick
      test_driver_fail_open;
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
    Alcotest.test_case "a warm predictor stays within its allocation budget"
      `Quick test_allocation_budget;
    Alcotest.test_case "a reused workspace predicts as a fresh one" `Quick
      test_workspace_reuse;
    Alcotest.test_case "an oversized workspace is not retained" `Quick
      test_bounded_retention;
  ]
