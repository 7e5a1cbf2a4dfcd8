(* Fault isolation and self-diagnosis: outcome classification (deadlock /
   livelock / fault / benign fuel exhaustion / crash), per-seed
   sandboxing, run-health verdicts, and the chaos fault-injection
   properties — the pipeline must degrade gracefully, never die. *)

open Arde.Builder
module B = Arde_workloads.Racey_base
module D = Arde.Driver
module M = Arde.Machine

let spin_mode = Arde.Config.Helgrind_spin 7

let options ?(seeds = [ 1; 2; 3 ]) ?(fuel = 30_000) ?inject () =
  Arde.Options.make ~seeds ~fuel ?inject ()

(* Every probe drives the same front door; the optional arguments fold
   into the run context. *)
let detect ?pool ?should_stop ~options mode p =
  Arde.detect
    ~ctx:(D.ctx ~options ?pool ?should_stop ())
    ~mode (Arde.Input.Program p)

(* ------------------------------------------------------------------ *)
(* Workloads with known pathologies                                    *)

(* The paper's failure mode made total: a consumer spins on a flag whose
   counterpart write was removed, so the loop can never be released. *)
let livelock_program =
  let consumer =
    func "consumer"
      (blk "entry" [] (goto "sp_t")
      :: B.spin_flag ~tag:"sp" ~flag:(g "flag") ~window:3 ~exit_lbl:"work"
      @ [ blk "work" [] exit_t ])
  in
  B.harness
    ~globals:[ global "flag" () ]
    ~workers:[ ("consumer", []) ]
    [ consumer ]

(* A waiter on a condition variable nobody ever signals: every thread
   ends up blocked, a textbook deadlock. *)
let deadlock_program =
  let waiter =
    func "waiter" [ blk "e" [ lock (g "m"); wait (g "cv") (g "m") ] exit_t ]
  in
  B.harness
    ~globals:[ global "m" (); global "cv" () ]
    ~workers:[ ("waiter", []) ]
    [ waiter ]

(* Crashes mid-run with a machine-level program fault. *)
let faulty_program =
  let w = func "w" [ blk "e" [ divi "x" (imm 1) (imm 0) ] exit_t ] in
  B.harness ~workers:[ ("w", []) ] [ w ]

(* Spins forever in a register-only loop: exhausts fuel with no active
   spin context, so the exhaustion is benign, not a livelock. *)
let busy_program =
  program ~entry:"main" [ func "main" [ blk "e" [ nop ] (goto "e") ] ]

(* A genuine two-writer race the detector reports on every healthy seed. *)
let racy_program =
  let w = func "w" ~params:[ "v" ] [ blk "e" [ store (g "x") (r "v") ] exit_t ] in
  B.harness
    ~globals:[ global "x" () ]
    ~workers:[ ("w", [ imm 1 ]); ("w", [ imm 2 ]) ]
    [ w ]

(* Fails validation (undeclared global): the pipeline cannot even start. *)
let invalid_program =
  program ~entry:"main"
    [ func "main" [ blk "e" [ store (g "nope") (imm 1) ] exit_t ] ]

(* ------------------------------------------------------------------ *)
(* Outcome classification                                              *)

let seed_outcomes r = List.map (fun sr -> sr.D.sr_outcome) r.D.runs

let test_deadlock () =
  let r = detect ~options:(options ()) spin_mode deadlock_program in
  List.iter
    (function
      | D.Completed (M.Deadlock _) -> ()
      | o -> Alcotest.failf "expected deadlock, got %a" D.pp_seed_outcome o)
    (seed_outcomes r);
  Alcotest.(check int) "all deadlocked" 3 r.D.health.D.h_deadlocked;
  Alcotest.(check bool) "degraded" true (r.D.health.D.h_verdict = D.Degraded)

let test_livelock_attribution () =
  let r = detect ~options:(options ~fuel:20_000 ()) spin_mode livelock_program in
  List.iter
    (function
      | D.Completed (M.Livelock [ site ]) ->
          Alcotest.(check string) "spinning function" "consumer"
            site.M.sp_loc.Arde.Types.lfunc;
          Alcotest.(check string) "spinning loop header" "sp_t"
            site.M.sp_loc.Arde.Types.lblk;
          Alcotest.(check (list string)) "condition variable" [ "flag" ]
            site.M.sp_bases
      | o -> Alcotest.failf "expected livelock, got %a" D.pp_seed_outcome o)
    (seed_outcomes r);
  Alcotest.(check int) "all livelocked" 3 r.D.health.D.h_livelocked;
  Alcotest.(check bool) "degraded" true (r.D.health.D.h_verdict = D.Degraded);
  (* The diagnostic names the loop and its condition variable. *)
  match seed_outcomes r with
  | D.Completed (M.Livelock _ as o) :: _ ->
      let rendered = Format.asprintf "%a" M.pp_outcome o in
      Alcotest.(check bool)
        (Printf.sprintf "%S names loop and variable" rendered)
        true
        (Astring.String.is_infix ~affix:"consumer/sp_t" rendered
        && Astring.String.is_infix ~affix:"flag" rendered)
  | _ -> assert false

let test_benign_fuel_exhaustion () =
  let r = detect ~options:(options ~fuel:1_000 ()) spin_mode busy_program in
  List.iter
    (function
      | D.Completed M.Fuel_exhausted -> ()
      | o ->
          Alcotest.failf "expected benign fuel exhaustion, got %a"
            D.pp_seed_outcome o)
    (seed_outcomes r);
  Alcotest.(check int) "counted as fuel-exhausted" 3
    r.D.health.D.h_fuel_exhausted;
  Alcotest.(check int) "no livelock claimed" 0 r.D.health.D.h_livelocked

let test_program_fault () =
  let r = detect ~options:(options ()) spin_mode faulty_program in
  List.iter
    (function
      | D.Completed (M.Fault { msg; _ }) ->
          Alcotest.(check string) "fault message" "division by zero" msg
      | o -> Alcotest.failf "expected fault, got %a" D.pp_seed_outcome o)
    (seed_outcomes r);
  Alcotest.(check int) "all faulted" 3 r.D.health.D.h_faulted;
  Alcotest.(check bool) "degraded" true (r.D.health.D.h_verdict = D.Degraded)

(* ------------------------------------------------------------------ *)
(* Per-seed sandboxing                                                 *)

(* One seed's observer blows up mid-run; the other seeds' warnings must
   survive and the wreck must be reported, not raised. *)
let test_crash_isolated () =
  let inject ~seed =
    if seed = 2 then (
      let count = ref 0 in
      fun _ev ->
        incr count;
        if !count = 10 then failwith "boom")
    else fun _ev -> ()
  in
  let r = detect ~options:(options ~inject ()) spin_mode racy_program in
  Alcotest.(check int) "one seed crashed" 1 r.D.health.D.h_crashed;
  Alcotest.(check int) "others finished" 2 r.D.health.D.h_finished;
  Alcotest.(check bool) "degraded, not failed" true
    (r.D.health.D.h_verdict = D.Degraded);
  (match List.find (fun sr -> sr.D.sr_seed = 2) r.D.runs with
  | { D.sr_outcome = D.Crashed (_, msg); _ } ->
      Alcotest.(check bool) "crash message preserved" true
        (Astring.String.is_infix ~affix:"boom" msg)
  | sr ->
      Alcotest.failf "seed 2 should have crashed, got %a" D.pp_seed_outcome
        sr.D.sr_outcome);
  Alcotest.(check (list string)) "healthy seeds' warnings still merged"
    [ "x" ] (D.racy_bases r);
  Alcotest.(check bool) "crash note recorded" true (r.D.health.D.h_notes <> [])

(* Every seed crashes: the run is Failed, but detect still returns. *)
let test_all_seeds_crash () =
  let inject ~seed:_ =
    let count = ref 0 in
    fun _ev ->
      incr count;
      if !count = 5 then failwith "chaos everywhere"
  in
  let r = detect ~options:(options ~inject ()) spin_mode racy_program in
  Alcotest.(check int) "all crashed" 3 r.D.health.D.h_crashed;
  Alcotest.(check bool) "failed" true (r.D.health.D.h_verdict = D.Failed)

(* A fault injected through the observer mid-step is attributed by the
   machine itself: a Fault outcome at the chaos location, not a crash. *)
let test_injected_machine_fault () =
  let opts = Arde.Chaos.apply (options ()) (Arde.Chaos.Fault_at 5) in
  let r = detect ~options:opts spin_mode racy_program in
  List.iter
    (function
      | D.Completed (M.Fault { floc; _ }) ->
          Alcotest.(check string) "chaos location" "<chaos>"
            floc.Arde.Types.lfunc
      | o -> Alcotest.failf "expected fault, got %a" D.pp_seed_outcome o)
    (seed_outcomes r);
  Alcotest.(check int) "all faulted" 3 r.D.health.D.h_faulted

(* The pipeline itself cannot start (program fails validation): Failed
   health record, no exception. *)
let test_pipeline_failure () =
  let r = detect ~options:(options ()) spin_mode invalid_program in
  Alcotest.(check int) "no runs" 0 (List.length r.D.runs);
  Alcotest.(check bool) "failed" true (r.D.health.D.h_verdict = D.Failed);
  Alcotest.(check bool) "pipeline note recorded" true
    (List.exists
       (fun n -> Astring.String.is_prefix ~affix:"pipeline:" n)
       r.D.health.D.h_notes)

(* An invalid program fails before anything looks at it: lowering and
   instrumentation never see it, so every mode and both input paths give
   the validator's message. *)
let invalid_text =
  "entry = main\n\nfunc main():\nentry:\n  lock @m\n  %x <- load @g\n  \
   goto nowhere\n"

let invalid_message =
  "pipeline: Tir.Validate: func main: undeclared global \"m\"; func main: \
   undeclared global \"g\"; func main: branch to unknown label \"nowhere\""

let test_invalid_program_one_message () =
  let program = Arde.Parse.program_exn invalid_text in
  List.iter
    (fun mode ->
      List.iter
        (fun (path, input) ->
          Arde.Analysis_cache.clear ();
          let r = Arde.detect ~ctx:(D.ctx ~options:(options ()) ()) ~mode input in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %s" (Arde.Config.mode_id mode) path)
            [ invalid_message ] r.D.health.D.h_notes)
        [ ("text", Arde.Input.Text invalid_text); ("program", Arde.Input.Program program) ])
    Arde.Config.all_table1_modes

(* Each cold path validates the program once, and a lowering once more;
   a prepared hit validates nothing. *)
let test_cold_paths_validate_once () =
  let case = List.hd (Arde_workloads.Racey.all ()) in
  let program = case.Arde_workloads.Racey.program in
  let text = Arde.Pretty.program_to_string program in
  let opts = options ~seeds:[ 1 ] () in
  let validations f =
    let before = Arde.Validate.runs () in
    f ();
    Arde.Validate.runs () - before
  in
  let detect ?(warm = false) mode input =
    if not warm then Arde.Analysis_cache.clear ();
    ignore (Arde.detect ~ctx:(D.ctx ~options:opts ()) ~mode input)
  in
  let trace mode =
    match Arde.record ~ctx:(D.ctx ~options:opts ()) ~mode (Arde.Input.Program program) with
    | Ok r -> r.D.rec_trace
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun mode ->
      let name what = Printf.sprintf "%s, %s" (Arde.Config.mode_id mode) what in
      let lowering = if Arde.Config.needs_lowering mode then 1 else 0 in
      Alcotest.(check int) (name "text miss") (1 + lowering)
        (validations (fun () -> detect mode (Arde.Input.Text text)));
      Alcotest.(check int) (name "text hit") 0
        (validations (fun () -> detect ~warm:true mode (Arde.Input.Text text)));
      Alcotest.(check int) (name "program miss") (1 + lowering)
        (validations (fun () -> detect mode (Arde.Input.Program program)));
      let valid = Arde.Validate.validate_exn program in
      Alcotest.(check int) (name "validated program") lowering
        (validations (fun () -> detect mode (Arde.Input.Valid valid)));
      let worker = Arde_server.Worker.programs () in
      Alcotest.(check int) (name "serve worker") (1 + lowering)
        (validations (fun () ->
             match
               Arde_server.Worker.lookup_program worker
                 ~digest:(Digest.string text) text
             with
             | Ok v -> detect mode (Arde.Input.Valid v)
             | Error e -> Alcotest.fail e));
      let data = trace mode in
      Alcotest.(check int) (name "trace load and replay") (1 + lowering)
        (validations (fun () ->
             match Arde.Recorded.of_string data with
             | Ok r -> detect mode (Arde.Input.Recorded_trace r)
             | Error e -> Alcotest.fail e)))
    Arde.Config.all_table1_modes

(* ------------------------------------------------------------------ *)
(* Chaos properties                                                    *)

let law ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let cases = Arde_workloads.Racey.all ()

let gen_case =
  QCheck2.Gen.map
    (fun i -> List.nth cases (i mod List.length cases))
    (QCheck2.Gen.int_bound (List.length cases - 1))

let health_coherent (h : D.health) =
  h.D.h_finished + h.D.h_deadlocked + h.D.h_livelocked + h.D.h_fuel_exhausted
  + h.D.h_faulted + h.D.h_crashed + h.D.h_cancelled
  = h.D.h_seeds
  &&
  match h.D.h_verdict with
  | D.Failed -> h.D.h_seeds = 0 || h.D.h_crashed = h.D.h_seeds
  | D.Healthy -> h.D.h_finished = h.D.h_seeds
  | D.Degraded -> h.D.h_finished < h.D.h_seeds

(* Whatever we throw at it, the pipeline returns a coherent health record
   rather than raising. *)
let prop_never_raises =
  law ~count:40 "chaos: pipeline never raises, health is coherent"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 1_000_000) gen_case)
    (fun (pseed, case) ->
      let p = Arde.Chaos.gen (Arde.Prng.create pseed) in
      let opts = Arde.Chaos.apply (options ~fuel:100_000 ()) p in
      match detect ~options:opts spin_mode case.Arde_workloads.Racey.program with
      | r ->
          health_coherent r.D.health
          && List.length r.D.runs = List.length opts.Arde.Options.seeds
      | exception e ->
          QCheck2.Test.fail_reportf "escaped under %a: %s"
            Arde.Chaos.pp_perturbation p (Printexc.to_string e))

(* The acceptance storm: hundreds of perturbed executions over healthy,
   racy and pathological workloads, zero escaped exceptions. *)
let test_storm () =
  let total = ref 0 in
  List.iter
    (fun (name, program, fuel) ->
      let report =
        Arde.Chaos.storm
          ~options:(options ~fuel ())
          ~runs:70 ~seed:42 spin_mode program
      in
      total := !total + report.Arde.Chaos.ch_runs;
      Alcotest.(check int)
        (name ^ ": no escaped exceptions")
        0
        (List.length report.Arde.Chaos.ch_escaped))
    [
      ("racy", racy_program, 50_000);
      ("livelock", livelock_program, 15_000);
      ("deadlock", deadlock_program, 30_000);
    ];
  Alcotest.(check bool) "at least 200 perturbed executions" true (!total >= 200)

(* Schedule-shaped (benign) perturbations and verdict stability.  A
   dynamic detector only reports what the schedule exposes, so a racy
   case may legitimately lose its race under an adversarial policy
   (Missed_race) — but a benign perturbation must never {e manufacture} a
   warning: while every seed stays healthy, a labelled clean verdict
   stays clean, and no perturbation turns any verdict into a false
   alarm. *)
let test_verdict_stability () =
  let baseline_opts = options ~fuel:400_000 () in
  let policies =
    [
      Arde.Sched.Round_robin 13;
      Arde.Sched.Uniform;
      Arde.Sched.Chunked 1;
    ]
  in
  let healthy r = r.D.health.D.h_verdict = D.Healthy in
  let verdict r (c : Arde_workloads.Racey.case) =
    Arde.Classify.outcome_of
      (Arde.Classify.classify c.Arde_workloads.Racey.expectation
         ~reported:(D.racy_bases r))
  in
  let flips = ref [] and compared = ref 0 in
  List.iter
    (fun (c : Arde_workloads.Racey.case) ->
      let base = detect ~options:baseline_opts spin_mode c.program in
      List.iter
        (fun policy ->
          let opts =
            Arde.Chaos.apply baseline_opts (Arde.Chaos.Adversarial_policy policy)
          in
          let perturbed = detect ~options:opts spin_mode c.program in
          if healthy base && healthy perturbed then begin
            incr compared;
            let b = verdict base c and p = verdict perturbed c in
            let manufactured =
              (p = Arde.Classify.False_alarm && b <> Arde.Classify.False_alarm)
              || c.Arde_workloads.Racey.expectation = Arde.Classify.Race_free
                 && b = Arde.Classify.Correct && p <> Arde.Classify.Correct
            in
            if manufactured then
              flips := c.Arde_workloads.Racey.name :: !flips
          end)
        policies)
    cases;
  (* The one family allowed to be schedule-fragile: double-checked
     initialization, whose safety argument is pure lockset over a
     schedule-dependent fast path — the paper's own residual false
     positive.  Everything else must be rock-solid. *)
  let dcl name =
    Astring.String.is_prefix ~affix:"dcl_" name
    || Astring.String.is_prefix ~affix:"double_checked_" name
  in
  Alcotest.(check (list string))
    "no manufactured warnings outside the DCL family" []
    (List.filter (fun n -> not (dcl n)) !flips);
  Alcotest.(check bool) "compared a meaningful sample" true (!compared > 200)

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation — the primitive behind the serve daemon's
   per-request deadlines and graceful drain.                           *)

(* Stop after the first seed completes: with jobs = 1 the hook runs in
   seed order, so exactly the remaining seeds become [Cancelled] while
   the completed seed's report is salvaged. *)
let test_cancelled_run_salvages_reports () =
  let started = ref 0 in
  let should_stop () =
    incr started;
    !started > 1
  in
  let options = options ~seeds:[ 1; 2; 3; 4; 5 ] () |> Arde.Options.with_jobs 1 in
  let r = detect ~options ~should_stop spin_mode racy_program in
  Alcotest.(check int) "one seed ran" 1 r.D.health.D.h_finished;
  Alcotest.(check int) "rest cancelled" 4 r.D.health.D.h_cancelled;
  Alcotest.(check bool) "degraded, not failed" true
    (r.D.health.D.h_verdict = D.Degraded);
  (match r.D.runs with
  | { D.sr_outcome = D.Completed M.Finished; sr_steps; _ } :: rest ->
      Alcotest.(check bool) "completed seed really ran" true (sr_steps > 0);
      List.iter
        (fun sr ->
          match sr.D.sr_outcome with
          | D.Cancelled ->
              Alcotest.(check int)
                (Printf.sprintf "seed %d never ran" sr.D.sr_seed)
                0 sr.D.sr_steps
          | o -> Alcotest.failf "expected cancelled, got %a" D.pp_seed_outcome o)
        rest
  | _ -> Alcotest.fail "expected first seed completed");
  (* the completed seed's warnings survive in the merged report *)
  Alcotest.(check bool) "salvaged race warnings" true
    (Arde.Report.n_contexts r.D.merged > 0);
  Alcotest.(check bool) "racy base reported" true
    (List.mem "x" (D.racy_bases r))

let test_cancelled_before_start () =
  let options = options () |> Arde.Options.with_jobs 1 in
  let r =
    detect ~options ~should_stop:(fun () -> true) spin_mode racy_program
  in
  Alcotest.(check int) "everything cancelled" 3 r.D.health.D.h_cancelled;
  Alcotest.(check bool) "degraded (cancellation is voluntary)" true
    (r.D.health.D.h_verdict = D.Degraded);
  Alcotest.(check int) "no findings" 0 (Arde.Report.n_contexts r.D.merged)

let test_cancelled_health_round_trips () =
  let options = options () |> Arde.Options.with_jobs 1 in
  let stop = ref false in
  let should_stop () =
    let s = !stop in
    stop := true;
    s
  in
  let r = detect ~options ~should_stop spin_mode racy_program in
  Alcotest.(check int) "two cancelled" 2 r.D.health.D.h_cancelled;
  match D.health_of_json (D.health_to_json r.D.health) with
  | Ok h -> Alcotest.(check bool) "health round-trips" true (h = r.D.health)
  | Error e -> Alcotest.failf "health_of_json: %s" e

let test_cancelled_run_on_resident_pool () =
  let pool = Arde.Domain_pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Arde.Domain_pool.shutdown pool)
    (fun () ->
      let options = options ~seeds:[ 1; 2; 3; 4; 5; 6 ] () in
      let r = detect ~options ~pool spin_mode racy_program in
      Alcotest.(check int) "all seeds ran on the pool" 6
        r.D.health.D.h_finished;
      (* byte-identical to the spawning path *)
      let r' = detect ~options spin_mode racy_program in
      Alcotest.(check string) "pool result identical to spawn result"
        (Arde.Json.to_string (D.result_to_json r'))
        (Arde.Json.to_string (D.result_to_json r)))

let suite =
  [
    Alcotest.test_case "deadlock is classified and tallied" `Quick test_deadlock;
    Alcotest.test_case "livelock names the loop and condition variable" `Quick
      test_livelock_attribution;
    Alcotest.test_case "benign fuel exhaustion is not a livelock" `Quick
      test_benign_fuel_exhaustion;
    Alcotest.test_case "program faults are completed outcomes" `Quick
      test_program_fault;
    Alcotest.test_case "a crashing seed is isolated; others still merge" `Quick
      test_crash_isolated;
    Alcotest.test_case "all seeds crashing yields Failed, not an exception"
      `Quick test_all_seeds_crash;
    Alcotest.test_case "injected machine faults are attributed" `Quick
      test_injected_machine_fault;
    Alcotest.test_case "pipeline failure yields a Failed health record" `Quick
      test_pipeline_failure;
    Alcotest.test_case "invalid program: one message, every mode and path" `Quick
      test_invalid_program_one_message;
    Alcotest.test_case "cold paths validate once" `Quick
      test_cold_paths_validate_once;
    prop_never_raises;
    Alcotest.test_case "chaos storm: 200+ runs, zero escapes" `Slow test_storm;
    Alcotest.test_case "benign perturbations never flip verdicts" `Slow
      test_verdict_stability;
    Alcotest.test_case "cancelled run salvages completed-seed reports" `Quick
      test_cancelled_run_salvages_reports;
    Alcotest.test_case "cancellation before the first seed" `Quick
      test_cancelled_before_start;
    Alcotest.test_case "cancelled health round-trips through JSON" `Quick
      test_cancelled_health_round_trips;
    Alcotest.test_case "resident pool matches the spawning path" `Quick
      test_cancelled_run_on_resident_pool;
  ]
