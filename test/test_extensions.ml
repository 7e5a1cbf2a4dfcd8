(* The extensions beyond the paper's evaluated system: statically inferred
   lock words (the paper's stated future work) and the condition-variable
   bug-pattern checkers Helgrind+ shipped with. *)

open Arde.Builder

(* ---- lock inference ---- *)

let test_infer_lowered_mutex () =
  let p =
    program
      ~globals:[ global "m" (); global "x" () ]
      ~entry:"main"
      [
        func "main"
          [ blk "e" [ lock (g "m"); store (g "x") (imm 1); unlock (g "m") ] exit_t ];
      ]
  in
  let inferred = Arde.Lock_infer.analyze (Arde.Lower.lower p) in
  Alcotest.(check (list string)) "lowered mutex inferred" [ "m" ]
    (Arde.Lock_infer.inferred_locks inferred)

let test_claim_flag_not_inferred () =
  (* A CAS-claimed flag with no release is not a lock. *)
  let p =
    program
      ~globals:[ global "claim" () ]
      ~entry:"main"
      [
        func "main"
          [ blk "e" [ cas "ok" (g "claim") (imm 0) (imm 1) ] exit_t ];
      ]
  in
  let inferred = Arde.Lock_infer.analyze p in
  Alcotest.(check (list string)) "no lock inferred" []
    (Arde.Lock_infer.inferred_locks inferred)

let test_future_work_mode_fixes_lockset_case () =
  (* dcl_writeback: safe only through the lockset argument.  The plain
     universal detector false-positives on val; with inferred locks the
     candidate lockset survives and the warning disappears. *)
  match Arde_workloads.Racey.find "dcl_writeback/6" with
  | None -> Alcotest.fail "case missing"
  | Some c ->
      let bases mode =
        Arde.Driver.racy_bases
          (Arde.detect ~mode (Arde.Input.Program c.Arde_workloads.Racey.program))
      in
      Alcotest.(check bool) "nolib+spin reports val" true
        (List.mem "val" (bases (Arde.Config.Nolib_spin 7)));
      Alcotest.(check bool) "nolib+spin+locks does not" false
        (List.mem "val" (bases (Arde.Config.Nolib_spin_locks 7)))

let test_future_work_mode_still_detects_races () =
  match Arde_workloads.Racey.find "racy_counter/4" with
  | None -> Alcotest.fail "case missing"
  | Some c ->
      Alcotest.(check (list string)) "real races still reported" [ "x" ]
        (Arde.Driver.racy_bases
           (Arde.detect
              ~mode:(Arde.Config.Nolib_spin_locks 7)
              (Arde.Input.Program c.Arde_workloads.Racey.program)))

let test_mode_parsing () =
  Alcotest.(check bool) "parses the future-work mode" true
    (Arde.Config.parse_mode "nolib+spin+locks:7"
    = Ok (Arde.Config.Nolib_spin_locks 7));
  Alcotest.(check bool) "bad window rejected" true
    (Result.is_error (Arde.Config.parse_mode "nolib+spin+locks:0"))

(* ---- CV checkers ---- *)

let gate_program ~recheck =
  let sleep_target = if recheck then "test" else "go" in
  program
    ~globals:[ global "m" (); global "cv" (); global "ready" () ]
    ~entry:"main"
    [
      func "main"
        [
          blk "e"
            [
              spawn "t" "consumer" [];
              lock (g "m");
              store (g "ready") (imm 1);
              unlock (g "m");
              signal (g "cv");
              join (r "t");
            ]
            exit_t;
        ];
      func "consumer"
        [
          blk "e" [ lock (g "m") ] (goto "test");
          blk "test" [ load "rd" (g "ready") ] (br (r "rd") "go" "sl");
          blk "sl" [ wait (g "cv") (g "m") ] (goto sleep_target);
          blk "go" [ unlock (g "m") ] exit_t;
        ];
    ]

let test_static_unsafe_wait () =
  let hazards p = Arde.Cv_checker.static_check p in
  Alcotest.(check int) "predicate loop accepted" 0
    (List.length (hazards (gate_program ~recheck:true)));
  match hazards (gate_program ~recheck:false) with
  | [ Arde.Cv_checker.Unsafe_wait _ ] -> ()
  | ds -> Alcotest.failf "expected one unsafe wait, got %d" (List.length ds)

(* The hazard scan is part of the prepared bundle: two runs of one
   program share the very list the first prepare computed. *)
let test_static_hazards_once_per_bundle () =
  Arde.Analysis_cache.clear ();
  let run () =
    Arde.detect ~mode:Arde.Config.Helgrind_lib
      (Arde.Input.Program (gate_program ~recheck:false))
  in
  let first = run () and second = run () in
  Alcotest.(check int) "one unsafe wait" 1
    (List.length first.Arde.Driver.static_cv_hazards);
  Alcotest.(check bool) "the second run reuses the bundle's scan" true
    (first.Arde.Driver.static_cv_hazards == second.Arde.Driver.static_cv_hazards)

let test_lost_signal_detected () =
  (* An unlocked predicate write makes the signal racy with the check:
     across enough seeds some run loses the wake-up and deadlocks — the
     checker must pair the void signal with the stuck wait. *)
  let p =
    program
      ~globals:[ global "m" (); global "cv" (); global "ready" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e"
              [
                spawn "t" "consumer" [];
                store (g "ready") (imm 1);
                signal (g "cv");
                join (r "t");
              ]
              exit_t;
          ];
        func "consumer"
          [
            blk "e" [ lock (g "m") ] (goto "test");
            blk "test" [ load "rd" (g "ready") ] (br (r "rd") "go" "sl");
            blk "sl" [ wait (g "cv") (g "m") ] (goto "test");
            blk "go" [ unlock (g "m") ] exit_t;
          ];
      ]
  in
  let options = Arde.Options.make ~seeds:(List.init 40 (fun i -> i + 1)) () in
  let result =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options ())
      ~mode:Arde.Config.Helgrind_lib (Arde.Input.Program p)
  in
  let lost =
    List.exists
      (fun sr ->
        List.exists
          (function Arde.Cv_checker.Lost_signal _ -> true | _ -> false)
          sr.Arde.Driver.sr_cv_diagnostics)
      result.Arde.Driver.runs
  in
  Alcotest.(check bool) "some seed reports a lost signal" true lost

let test_no_lost_signal_when_correct () =
  let options =
    Arde.Options.make ~seeds:(List.init 10 (fun i -> i + 1)) ()
  in
  let result =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options ())
      ~mode:Arde.Config.Helgrind_lib
      (Arde.Input.Program (gate_program ~recheck:true))
  in
  List.iter
    (fun sr ->
      Alcotest.(check int) "no diagnostics" 0
        (List.length sr.Arde.Driver.sr_cv_diagnostics))
    result.Arde.Driver.runs

let suite =
  [
    Alcotest.test_case "lowered mutex inferred as lock" `Quick
      test_infer_lowered_mutex;
    Alcotest.test_case "claim flag not inferred" `Quick
      test_claim_flag_not_inferred;
    Alcotest.test_case "future-work mode recovers locksets" `Quick
      test_future_work_mode_fixes_lockset_case;
    Alcotest.test_case "future-work mode keeps real races" `Quick
      test_future_work_mode_still_detects_races;
    Alcotest.test_case "mode string parsing" `Quick test_mode_parsing;
    Alcotest.test_case "static unsafe-wait detection" `Quick
      test_static_unsafe_wait;
    Alcotest.test_case "static hazards scanned once per bundle" `Quick
      test_static_hazards_once_per_bundle;
    Alcotest.test_case "lost signal detected" `Slow test_lost_signal_detected;
    Alcotest.test_case "correct gate has no diagnostics" `Quick
      test_no_lost_signal_when_correct;
  ]
