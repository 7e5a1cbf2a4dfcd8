(* Edge semantics of the machine: faults, calls and returns, scheduler
   policies, trace utilities. *)

open Arde.Builder

let run ?(seed = 1) ?(fuel = 100_000) p =
  Arde.Machine.run_program
    { Arde.Machine.default_config with Arde.Machine.seed; fuel }
    p

let expect_fault name p =
  match (run p).Arde.Machine.outcome with
  | Arde.Machine.Fault _ -> ()
  | o ->
      Alcotest.failf "%s: expected fault, got %a" name Arde.Machine.pp_outcome o

let test_indirect_call_out_of_range () =
  expect_fault "bad table index"
    (program ~entry:"main" ~func_table:[ "f" ]
       [
         func "main" [ blk "e" [ call_ind (imm 3) [] ] exit_t ];
         func "f" [ blk "e" [] ret0 ];
       ])

let test_indirect_call_dispatch () =
  let p =
    program
      ~globals:[ global "out" ~size:2 () ]
      ~entry:"main" ~func_table:[ "f0"; "f1" ]
      [
        func "main"
          [
            blk "e"
              [
                call_ind ~ret:"a" (imm 0) [ imm 10 ];
                call_ind ~ret:"b" (imm 1) [ imm 10 ];
                store (gi "out" (imm 0)) (r "a");
                store (gi "out" (imm 1)) (r "b");
              ]
              exit_t;
          ];
        func "f0" ~params:[ "x" ]
          [ blk "e" [ addi "y" (r "x") (imm 1) ] (ret (Some (r "y"))) ];
        func "f1" ~params:[ "x" ]
          [ blk "e" [ muli "y" (r "x") (imm 2) ] (ret (Some (r "y"))) ];
      ]
  in
  let res = run p in
  Alcotest.(check int) "slot 0 dispatched" 11 (Arde.Machine.read_global res "out" 0);
  Alcotest.(check int) "slot 1 dispatched" 20 (Arde.Machine.read_global res "out" 1)

let test_barrier_uninitialized_faults () =
  expect_fault "barrier before init"
    (program
       ~globals:[ global "b" () ]
       ~entry:"main"
       [ func "main" [ blk "e" [ barrier_wait (g "b") ] exit_t ] ])

let test_join_unknown_thread_faults () =
  expect_fault "join bad tid"
    (program ~entry:"main"
       [ func "main" [ blk "e" [ join (imm 42) ] exit_t ] ])

let test_negative_index_faults () =
  expect_fault "negative index"
    (program
       ~globals:[ global "a" ~size:2 () ]
       ~entry:"main"
       [
         func "main"
           [ blk "e" [ mov "i" (imm (-1)); load "v" (gi "a" (r "i")) ] exit_t ];
       ])

let test_recursion_and_return_values () =
  (* fib(10) through the call stack. *)
  let p =
    program
      ~globals:[ global "out" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e" [ call ~ret:"v" "fib" [ imm 10 ]; store (g "out") (r "v") ]
              exit_t;
          ];
        func "fib" ~params:[ "n" ]
          [
            blk "e" [ cmp Lt "small" (r "n") (imm 2) ] (br (r "small") "base" "rec");
            blk "base" [] (ret (Some (r "n")));
            blk "rec"
              [
                subi "n1" (r "n") (imm 1);
                subi "n2" (r "n") (imm 2);
                call ~ret:"a" "fib" [ r "n1" ];
                call ~ret:"b" "fib" [ r "n2" ];
                addi "s" (r "a") (r "b");
              ]
              (ret (Some (r "s")));
          ];
      ]
  in
  let res = run p in
  Alcotest.(check int) "fib 10" 55 (Arde.Machine.read_global res "out" 0)

let test_ret_without_value_defaults_zero () =
  let p =
    program
      ~globals:[ global "out" () ]
      ~entry:"main"
      [
        func "main"
          [ blk "e" [ call ~ret:"v" "f" []; store (g "out") (r "v") ] exit_t ];
        func "f" [ blk "e" [] ret0 ];
      ]
  in
  Alcotest.(check int) "void return reads as 0" 0
    (Arde.Machine.read_global (run p) "out" 0)

let test_shift_masking () =
  let p =
    program
      ~globals:[ global "out" ~size:2 () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e"
              [
                mov "big" (imm 100);
                shli "a" (imm 1) (r "big");
                shri "b" (imm 1024) (r "big");
                store (gi "out" (imm 0)) (r "a");
                store (gi "out" (imm 1)) (r "b");
              ]
              exit_t;
          ];
      ]
  in
  let res = run p in
  (* 100 land 62 = 36 *)
  Alcotest.(check int) "shl masks its count" (1 lsl 36)
    (Arde.Machine.read_global res "out" 0);
  Alcotest.(check int) "shr masks its count" 0
    (Arde.Machine.read_global res "out" 1)

let test_round_robin_quantum () =
  (* Under round robin with a large quantum, thread 1 completes all its
     steps before thread 2 starts: the final value is deterministic. *)
  let w =
    func "w" ~params:[ "v" ]
      [ blk "e" [ store (g "x") (r "v") ] exit_t ]
  in
  let p =
    program
      ~globals:[ global "x" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e" [ spawn "a" "w" [ imm 1 ]; spawn "b" "w" [ imm 2 ] ] (goto "j");
            blk "j" [ join (r "a"); join (r "b") ] exit_t;
          ];
        w;
      ]
  in
  let res =
    Arde.Machine.run_program
      {
        Arde.Machine.default_config with
        Arde.Machine.policy = Arde.Sched.Round_robin 1000;
      }
      p
  in
  Alcotest.(check int) "second spawned thread wrote last" 2
    (Arde.Machine.read_global res "x" 0)

let test_trace_pp_and_length () =
  let tr = Arde.Trace.create () in
  let cfg =
    { Arde.Machine.default_config with observer = Arde.Trace.push tr }
  in
  let p =
    program
      ~globals:[ global "x" () ]
      ~entry:"main"
      [ func "main" [ blk "e" [ store (g "x") (imm 1) ] exit_t ] ]
  in
  ignore (Arde.Machine.run_program cfg p);
  Alcotest.(check int) "events recorded" (Array.length (Arde.Trace.events tr))
    (Arde.Trace.length tr);
  let s = Format.asprintf "%a" Arde.Trace.pp tr in
  Alcotest.(check bool) "printable" true (String.length s > 0)

let test_lock_handoff_fifo () =
  (* Waiters are granted in arrival order: with round robin, the order of
     critical-section entry matches spawn order. *)
  let w =
    func "w" ~params:[ "v" ]
      [
        blk "e"
          ([ lock (g "m") ]
          @ [
              load "seq0" (g "seq");
              addi "seq1" (r "seq0") (imm 1);
              store (g "seq") (r "seq1");
              muli "mark" (r "v") (imm 100);
              addi "rec" (r "mark") (r "seq1");
              store (gi "order" (r "seq0")) (r "rec");
            ]
          @ [ unlock (g "m") ])
          exit_t;
      ]
  in
  let p =
    program
      ~globals:[ global "m" (); global "seq" (); global "order" ~size:3 () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e"
              [
                spawn "a" "w" [ imm 1 ]; spawn "b" "w" [ imm 2 ];
                spawn "c" "w" [ imm 3 ];
              ]
              (goto "j");
            blk "j" [ join (r "a"); join (r "b"); join (r "c") ] exit_t;
          ];
        w;
      ]
  in
  let res = run p in
  Alcotest.(check bool) "three sections ran" true
    (Arde.Machine.read_global res "seq" 0 = 3)

let test_thread_step_accounting () =
  let p =
    program
      ~globals:[ global "x" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e" [ spawn "a" "w" [] ] (goto "j");
            blk "j" [ join (r "a") ] exit_t;
          ];
        func "w" [ blk "e" [ store (g "x") (imm 1); nop; nop ] exit_t ];
      ]
  in
  let res = run p in
  Alcotest.(check int) "two threads accounted" 2
    (Array.length res.Arde.Machine.thread_steps);
  Alcotest.(check int) "totals add up" res.Arde.Machine.steps
    (Array.fold_left ( + ) 0 res.Arde.Machine.thread_steps);
  Alcotest.(check bool) "at least one hand-off" true
    (res.Arde.Machine.context_switches >= 1)

let suite =
  [
    Alcotest.test_case "indirect call: out of range" `Quick
      test_indirect_call_out_of_range;
    Alcotest.test_case "indirect call: dispatch" `Quick test_indirect_call_dispatch;
    Alcotest.test_case "barrier before init faults" `Quick
      test_barrier_uninitialized_faults;
    Alcotest.test_case "join of unknown thread faults" `Quick
      test_join_unknown_thread_faults;
    Alcotest.test_case "negative index faults" `Quick test_negative_index_faults;
    Alcotest.test_case "recursion and return values" `Quick
      test_recursion_and_return_values;
    Alcotest.test_case "void return reads as zero" `Quick
      test_ret_without_value_defaults_zero;
    Alcotest.test_case "shift counts are masked" `Quick test_shift_masking;
    Alcotest.test_case "round robin quantum" `Quick test_round_robin_quantum;
    Alcotest.test_case "trace printing and length" `Quick test_trace_pp_and_length;
    Alcotest.test_case "lock handoff completes" `Quick test_lock_handoff_fifo;
    Alcotest.test_case "per-thread step accounting" `Quick
      test_thread_step_accounting;
  ]
