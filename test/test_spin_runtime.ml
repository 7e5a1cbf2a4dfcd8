(* The runtime phase in detail: context tracking across calls and
   returns, dependency attribution, suppression scope, and same-trace
   detector comparisons. *)

open Arde.Builder

let run_traced ?(seed = 1) ~k p =
  let inst = Arde.analyze_spins ~k p in
  let tr = Arde.Trace.create () in
  let cfg =
    {
      Arde.Machine.default_config with
      Arde.Machine.seed;
      instrument = Some inst;
      observer = Arde.Trace.push tr;
    }
  in
  let res = Arde.Machine.run_program cfg p in
  (res, Arde.Trace.events tr, inst)

(* A loop whose condition is evaluated in a callee: the marked load lives
   in another function, yet must be tagged with the caller's context. *)
let call_condition_program =
  program
    ~globals:[ global "flag" (); global "data" () ]
    ~entry:"main"
    [
      func "main"
        [
          blk "e"
            [
              spawn "t" "w" [];
              store (g "data") (imm 9);
              store (g "flag") (imm 1);
              join (r "t");
            ]
            exit_t;
        ];
      func "w"
        [
          blk "e" [] (goto "sp");
          blk "sp" [ call ~ret:"ok" "chk" [] ] (br (r "ok") "wk" "sp");
          blk "wk" [ load "d" (g "data"); store (g "data") (r "d") ] exit_t;
        ];
      func "chk"
        [
          blk "e" [ load "v" (g "flag") ] (br (r "v") "y" "n");
          blk "y" [] (ret (Some (imm 1)));
          blk "n" [] (ret (Some (imm 0)));
        ];
    ]

let test_callee_load_tagged () =
  let res, events, _ = run_traced ~k:7 call_condition_program in
  Alcotest.(check bool) "finished" true
    (res.Arde.Machine.outcome = Arde.Machine.Finished);
  let tagged_in_chk =
    Array.exists
      (function
        | Arde.Event.Read { loc; spin = _ :: _; _ } -> loc.Arde.Types.lfunc = "chk"
        | _ -> false)
      events
  in
  Alcotest.(check bool) "load inside the helper carries the caller's context"
    true tagged_in_chk

let test_small_window_no_contexts () =
  (* With k too small for this loop, no contexts open at all. *)
  let _, events, inst = run_traced ~k:2 call_condition_program in
  Alcotest.(check int) "no loops accepted" 0
    (List.length (Arde.Instrument.spins inst));
  Alcotest.(check bool) "no spin events" true
    (not
       (Array.exists
          (function Arde.Event.Spin_enter _ -> true | _ -> false)
          events))

(* Exiting a spin loop by returning out of the function must close the
   context. *)
let exit_by_return_program =
  program
    ~globals:[ global "flag" (); global "data" () ]
    ~entry:"main"
    [
      func "main"
        [
          blk "e"
            [
              spawn "t" "w" [];
              store (g "data") (imm 5);
              store (g "flag") (imm 1);
              join (r "t");
            ]
            exit_t;
        ];
      func "w" [ blk "e" [ call "waitf" [] ; load "d" (g "data"); store (g "data") (r "d") ] exit_t ];
      func "waitf"
        [
          blk "sp" [ load "v" (g "flag") ] (br (r "v") "out" "sp");
          blk "out" [] ret0;
        ];
    ]

let test_exit_by_return_closes_context () =
  let _, events, _ = run_traced ~k:7 exit_by_return_program in
  let enters, exits =
    Array.fold_left
      (fun (en, ex) -> function
        | Arde.Event.Spin_enter _ -> (en + 1, ex)
        | Arde.Event.Spin_exit _ -> (en, ex + 1)
        | _ -> (en, ex))
      (0, 0) events
  in
  Alcotest.(check bool) "contexts opened" true (enters > 0);
  Alcotest.(check int) "all closed" enters exits

let test_edge_still_drawn_through_return () =
  let result =
    Arde.detect
      ~mode:(Arde.Config.Helgrind_spin 7)
      (Arde.Input.Program exit_by_return_program)
  in
  Alcotest.(check (list string)) "data ordered through the returned loop" []
    (Arde.Driver.racy_bases result)

(* Suppression is limited to condition bases: a read of an unmarked
   global inside the loop body is still checked. *)
let body_access_program =
  program
    ~globals:[ global "flag" (); global "noise" () ]
    ~entry:"main"
    [
      func "main"
        [
          blk "e"
            [ spawn "t" "w" []; store (g "noise") (imm 1); store (g "flag") (imm 1); join (r "t") ]
            exit_t;
        ];
      func "w"
        [
          blk "e" [] (goto "sp");
          blk "sp"
            [ load "n" (g "noise"); store (g "noise") (r "n"); load "v" (g "flag") ]
            (br (r "v") "out" "sp");
          blk "out" [] exit_t;
        ];
    ]

let test_body_accesses_not_suppressed () =
  let inst = Arde.analyze_spins ~k:7 body_access_program in
  Alcotest.(check bool) "flag marked" true (Arde.Instrument.is_sync_base inst "flag");
  Alcotest.(check bool) "noise not marked" false
    (Arde.Instrument.is_sync_base inst "noise");
  let result =
    Arde.detect
      ~mode:(Arde.Config.Helgrind_spin 7)
      (Arde.Input.Program body_access_program)
  in
  Alcotest.(check bool) "the unrelated body write is still reported" true
    (List.mem "noise" (Arde.Driver.racy_bases result))

(* ---- same-trace comparison ---- *)

let test_compare_on_trace () =
  let c =
    match Arde_workloads.Racey.find "adhoc_flag_w2/2" with
    | Some c -> c.Arde_workloads.Racey.program
    | None -> Alcotest.fail "case missing"
  in
  let results =
    Arde.Driver.compare_on_trace ~k:7 c
      [ Arde.Config.Helgrind_lib; Arde.Config.Helgrind_spin 7; Arde.Config.Drd ]
  in
  let bases mode = Arde.Report.racy_bases (List.assoc mode results) in
  Alcotest.(check bool) "lib reports data on this exact trace" true
    (List.mem "data" (bases Arde.Config.Helgrind_lib));
  Alcotest.(check (list string)) "spin engine silent on the same trace" []
    (bases (Arde.Config.Helgrind_spin 7));
  Alcotest.(check bool) "drd reports data too" true
    (List.mem "data" (bases Arde.Config.Drd))

let test_compare_rejects_lowering_modes () =
  let c =
    match Arde_workloads.Racey.find "adhoc_flag_w2/2" with
    | Some c -> c.Arde_workloads.Racey.program
    | None -> Alcotest.fail "case missing"
  in
  match Arde.Driver.compare_on_trace ~k:7 c [ Arde.Config.Nolib_spin 7 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of a lowering mode"

let suite =
  [
    Alcotest.test_case "callee condition loads are tagged" `Quick
      test_callee_load_tagged;
    Alcotest.test_case "small window opens no contexts" `Quick
      test_small_window_no_contexts;
    Alcotest.test_case "exit by return closes contexts" `Quick
      test_exit_by_return_closes_context;
    Alcotest.test_case "edge drawn through a returned loop" `Quick
      test_edge_still_drawn_through_return;
    Alcotest.test_case "suppression limited to condition bases" `Quick
      test_body_accesses_not_suppressed;
    Alcotest.test_case "same-trace mode comparison" `Quick test_compare_on_trace;
    Alcotest.test_case "same-trace rejects lowering modes" `Quick
      test_compare_rejects_lowering_modes;
  ]
