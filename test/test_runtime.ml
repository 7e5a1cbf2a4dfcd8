(* Machine semantics: arithmetic, faults, every synchronization primitive,
   scheduling determinism, spin-context events. *)

open Arde.Builder

let run ?(seed = 1) ?(policy = Arde.Sched.Chunked 6) ?(fuel = 200_000)
    ?instrument ?(spurious = false) ?(observer = ignore) p =
  let cfg =
    {
      Arde.Machine.policy;
      seed;
      fuel;
      instrument;
      spurious_wakeups = spurious;
      observer;
    }
  in
  Arde.Machine.run_program cfg p

let finished res =
  Alcotest.(check bool)
    (Format.asprintf "finished (got %a)" Arde.Machine.pp_outcome
       res.Arde.Machine.outcome)
    true
    (res.Arde.Machine.outcome = Arde.Machine.Finished)

let single_main ?(globals = [ global "x" () ]) ins =
  program ~globals ~entry:"main" [ func "main" [ blk "entry" ins exit_t ] ]

let test_arithmetic () =
  let p =
    single_main
      [
        mov "a" (imm 17);
        muli "b" (r "a") (imm 3);
        subi "c" (r "b") (imm 1);
        divi "d" (r "c") (imm 5);
        modi "e" (r "d") (imm 7);
        shli "f" (r "e") (imm 2);
        xori "g1" (r "f") (imm 5);
        andi "h" (r "g1") (imm 14);
        ori "i" (r "h") (imm 16);
        store (g "x") (r "i");
      ]
  in
  let res = run p in
  finished res;
  (* 17*3-1=50; 50/5=10; 10 mod 7=3; 3<<2=12; 12 xor 5=9; 9 land 14=8;
     8 lor 16=24 *)
  Alcotest.(check int) "arithmetic chain" 24 (Arde.Machine.read_global res "x" 0)

let test_division_by_zero_faults () =
  let res = run (single_main [ mov "z" (imm 0); divi "d" (imm 1) (r "z") ]) in
  match res.Arde.Machine.outcome with
  | Arde.Machine.Fault { msg; _ } ->
      Alcotest.(check string) "message" "division by zero" msg
  | o -> Alcotest.failf "expected fault, got %a" Arde.Machine.pp_outcome o

let test_out_of_bounds_faults () =
  let res =
    run (single_main ~globals:[ global "a" ~size:2 () ] [ load "v" (gi "a" (imm 5)) ])
  in
  match res.Arde.Machine.outcome with
  | Arde.Machine.Fault _ -> ()
  | o -> Alcotest.failf "expected fault, got %a" Arde.Machine.pp_outcome o

let test_cas_semantics () =
  let p =
    single_main
      ~globals:[ global "x" (); global "out" ~size:2 () ]
      [
        store (g "x") (imm 5);
        cas "ok1" (g "x") (imm 5) (imm 9);
        cas "ok2" (g "x") (imm 5) (imm 11);
        store (gi "out" (imm 0)) (r "ok1");
        store (gi "out" (imm 1)) (r "ok2");
      ]
  in
  let res = run p in
  finished res;
  Alcotest.(check int) "first cas succeeded" 1 (Arde.Machine.read_global res "out" 0);
  Alcotest.(check int) "second cas failed" 0 (Arde.Machine.read_global res "out" 1);
  Alcotest.(check int) "value swapped once" 9 (Arde.Machine.read_global res "x" 0)

let test_rmw_semantics () =
  let p =
    single_main
      [
        rmw Rmw_add "old1" (g "x") (imm 4);
        rmw Rmw_exchange "old2" (g "x") (imm 100);
        rmw Rmw_or "old3" (g "x") (imm 3);
        rmw Rmw_and "old4" (g "x") (imm 6);
        store (g "x") (r "old4");
      ]
  in
  let res = run p in
  finished res;
  (* x: 0 -> 4 -> 100 -> 103 -> 6; old4 = 103 *)
  Alcotest.(check int) "rmw chain old value" 103 (Arde.Machine.read_global res "x" 0)

let test_check_failure_recorded () =
  let res = run (single_main [ mov "z" (imm 0); check (r "z") "should fail" ]) in
  finished res;
  match res.Arde.Machine.check_failures with
  | [ (_, "should fail") ] -> ()
  | other -> Alcotest.failf "expected one failure, got %d" (List.length other)

let test_recursive_lock_faults () =
  let res =
    run (single_main ~globals:[ global "m" () ] [ lock (g "m"); lock (g "m") ])
  in
  match res.Arde.Machine.outcome with
  | Arde.Machine.Fault { msg; _ } ->
      Alcotest.(check bool) "recursive lock" true
        (String.length msg > 9 && String.sub msg 0 9 = "recursive")
  | o -> Alcotest.failf "expected fault, got %a" Arde.Machine.pp_outcome o

let test_unlock_not_owner_faults () =
  let res = run (single_main ~globals:[ global "m" () ] [ unlock (g "m") ]) in
  match res.Arde.Machine.outcome with
  | Arde.Machine.Fault _ -> ()
  | o -> Alcotest.failf "expected fault, got %a" Arde.Machine.pp_outcome o

let test_mutual_exclusion () =
  (* Two threads increment x 50 times each under a mutex: the total is
     exact for every seed, proving the mutex really excludes. *)
  let w =
    func "w" ~params:[ "i" ]
      (blk "entry" [ mov "j" (imm 0) ] (goto "loop_head")
      :: counted_loop ~tag:"loop" ~counter:"j" ~limit:(imm 50)
           ~body:
             [
               lock (g "m");
               load "v" (g "x");
               addi "v1" (r "v") (imm 1);
               store (g "x") (r "v1");
               unlock (g "m");
             ]
           ~next:"fin"
      @ [ blk "fin" [] exit_t ])
  in
  let p =
    program
      ~globals:[ global "m" (); global "x" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e" [ spawn "a" "w" [ imm 0 ]; spawn "b" "w" [ imm 1 ] ] (goto "j");
            blk "j" [ join (r "a"); join (r "b") ] exit_t;
          ];
        w;
      ]
  in
  List.iter
    (fun seed ->
      let res = run ~seed p in
      finished res;
      Alcotest.(check int) "exactly 100" 100 (Arde.Machine.read_global res "x" 0))
    [ 1; 2; 3; 4; 5 ]

let test_deadlock_detected () =
  let p =
    program
      ~globals:[ global "m1" (); global "m2" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e" [ spawn "a" "wa" []; spawn "b" "wb" [] ] (goto "j");
            blk "j" [ join (r "a"); join (r "b") ] exit_t;
          ];
        (* classic lock-order inversion with a yield to force overlap *)
        func "wa"
          [ blk "e" [ lock (g "m1"); yield; yield; lock (g "m2") ] exit_t ];
        func "wb"
          [ blk "e" [ lock (g "m2"); yield; yield; lock (g "m1") ] exit_t ];
      ]
  in
  let deadlocks =
    List.exists
      (fun seed ->
        match (run ~seed ~policy:Arde.Sched.Uniform p).Arde.Machine.outcome with
        | Arde.Machine.Deadlock _ -> true
        | _ -> false)
      (List.init 30 (fun i -> i + 1))
  in
  Alcotest.(check bool) "some seed deadlocks" true deadlocks

let test_fuel_exhaustion () =
  let p =
    program ~entry:"main"
      [ func "main" [ blk "e" [] (goto "e") ] ]
  in
  let res = run ~fuel:1000 p in
  Alcotest.(check bool) "fuel runs out" true
    (res.Arde.Machine.outcome = Arde.Machine.Fuel_exhausted)

let test_barrier_releases_all () =
  let n = 4 in
  let w =
    func "w" ~params:[ "i" ]
      [
        blk "e"
          [ barrier_wait (g "b"); load "v" (g "x"); store (gi "out" (r "i")) (r "v") ]
          exit_t;
      ]
  in
  let spawns = List.init n (fun i -> spawn (Printf.sprintf "t%d" i) "w" [ imm i ]) in
  let joins = List.init n (fun i -> join (r (Printf.sprintf "t%d" i))) in
  let p =
    program
      ~globals:[ global "b" (); global "x" (); global "out" ~size:n () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e"
              ([ barrier_init (g "b") (imm (n + 1)); store (g "x") (imm 7) ]
              @ spawns)
              (goto "sync");
            blk "sync" (barrier_wait (g "b") :: joins) exit_t;
          ];
        w;
      ]
  in
  let res = run p in
  finished res;
  for i = 0 to n - 1 do
    Alcotest.(check int) "saw pre-barrier store" 7
      (Arde.Machine.read_global res "out" i)
  done

let test_semaphore_counts () =
  (* A semaphore initialized to 2 admits at most 2 into the region. *)
  let w =
    func "w" ~params:[ "i" ]
      [
        blk "e"
          [
            sem_wait (g "s");
            rmw Rmw_add "o" (g "inside") (imm 1);
            load "c" (g "inside");
            cmp Le "ok" (r "c") (imm 2);
            check (r "ok") "at most two inside";
            rmw Rmw_add "o2" (g "inside") (imm (-1));
            sem_post (g "s");
          ]
          exit_t;
      ]
  in
  let n = 6 in
  let spawns = List.init n (fun i -> spawn (Printf.sprintf "t%d" i) "w" [ imm i ]) in
  let joins = List.init n (fun i -> join (r (Printf.sprintf "t%d" i))) in
  let p =
    program
      ~globals:[ global "s" (); global "inside" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e" (sem_init (g "s") (imm 2) :: spawns) (goto "j");
            blk "j" joins exit_t;
          ];
        w;
      ]
  in
  List.iter
    (fun seed ->
      let res = run ~seed p in
      finished res;
      Alcotest.(check (list (pair (of_pp Arde.Pretty.loc) string)))
        "no capacity violation" [] res.Arde.Machine.check_failures)
    [ 1; 2; 3 ]

let test_cv_wakeup () =
  let consumer =
    func "consumer"
      [
        blk "e" [ lock (g "m") ] (goto "t");
        blk "t" [ load "rd" (g "ready") ] (br (r "rd") "go" "sl");
        blk "sl" [ wait (g "cv") (g "m") ] (goto "t");
        blk "go" [ unlock (g "m"); load "d" (g "data"); store (g "out") (r "d") ] exit_t;
      ]
  in
  let p =
    program
      ~globals:
        [
          global "m" (); global "cv" (); global "ready" (); global "data" ();
          global "out" ();
        ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e"
              [
                spawn "t" "consumer" [];
                store (g "data") (imm 55);
                lock (g "m");
                store (g "ready") (imm 1);
                unlock (g "m");
                signal (g "cv");
                join (r "t");
              ]
              exit_t;
          ];
        consumer;
      ]
  in
  List.iter
    (fun seed ->
      let res = run ~seed p in
      finished res;
      Alcotest.(check int) "handoff arrived" 55 (Arde.Machine.read_global res "out" 0))
    [ 1; 2; 3; 4; 5; 6 ]

let delay_instrs n = List.init n (fun _ -> nop)

let test_spurious_wakeup_injection () =
  (* With spurious wakeups a non-predicate-loop wait breaks: the consumer
     proceeds without the handoff at least under one seed. *)
  let consumer =
    func "consumer"
      [
        blk "e" [ lock (g "m") ] (goto "t");
        blk "t" [ load "rd" (g "ready") ] (br (r "rd") "go" "sl");
        blk "sl" [ wait (g "cv") (g "m") ] (goto "go") (* no re-check: bug *);
        blk "go"
          [
            unlock (g "m");
            load "rd2" (g "ready");
            check (r "rd2") "woke without the predicate";
          ]
          exit_t;
      ]
  in
  let p =
    program
      ~globals:[ global "m" (); global "cv" (); global "ready" () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "e" [ spawn "t" "consumer" [] ] (goto "w");
            blk "w"
              (delay_instrs 300
              @ [
                  lock (g "m");
                  store (g "ready") (imm 1);
                  unlock (g "m");
                  signal (g "cv");
                  join (r "t");
                ])
              exit_t;
          ];
        consumer;
      ]
  in
  let tripped =
    List.exists
      (fun seed ->
        let res = run ~seed ~spurious:true p in
        res.Arde.Machine.check_failures <> [])
      (List.init 40 (fun i -> i + 1))
  in
  Alcotest.(check bool) "a spurious wakeup bites the buggy wait" true tripped

let test_determinism_same_seed () =
  let p =
    match Arde_workloads.Racey.find "task_queue/5" with
    | Some c -> c.Arde_workloads.Racey.program
    | None -> Alcotest.fail "case missing"
  in
  let hash seed =
    let tr = Arde.Trace.create () in
    ignore (run ~seed ~observer:(Arde.Trace.push tr) p);
    Arde.Trace.hash tr
  in
  Alcotest.(check int) "seed 3 replays identically" (hash 3) (hash 3);
  Alcotest.(check bool) "different seeds usually differ" true
    (hash 1 <> hash 2 || hash 2 <> hash 4)

let test_round_robin_deterministic () =
  let p =
    match Arde_workloads.Racey.find "racy_counter/4" with
    | Some c -> c.Arde_workloads.Racey.program
    | None -> Alcotest.fail "case missing"
  in
  let hash seed =
    let tr = Arde.Trace.create () in
    ignore (run ~seed ~policy:(Arde.Sched.Round_robin 3) ~observer:(Arde.Trace.push tr) p);
    Arde.Trace.hash tr
  in
  Alcotest.(check int) "round robin ignores the seed" (hash 1) (hash 99)

let test_spin_events_paired () =
  let p =
    match Arde_workloads.Racey.find "adhoc_flag_w2/2" with
    | Some c -> c.Arde_workloads.Racey.program
    | None -> Alcotest.fail "case missing"
  in
  let inst = Arde.analyze_spins ~k:7 p in
  let tr = Arde.Trace.create () in
  let res = run ~instrument:inst ~observer:(Arde.Trace.push tr) p in
  finished res;
  let enters, exits, tagged =
    Array.fold_left
      (fun (en, ex, tg) ev ->
        match ev with
        | Arde.Event.Spin_enter _ -> (en + 1, ex, tg)
        | Arde.Event.Spin_exit _ -> (en, ex + 1, tg)
        | Arde.Event.Read { spin = _ :: _; _ } -> (en, ex, tg + 1)
        | _ -> (en, ex, tg))
      (0, 0, 0) (Arde.Trace.events tr)
  in
  Alcotest.(check int) "every context closes" enters exits;
  Alcotest.(check bool) "contexts were opened" true (enters > 0);
  Alcotest.(check bool) "condition loads were tagged" true (tagged > 0)

let test_thread_limit_faults () =
  let p =
    program ~entry:"main"
      [
        func "main"
          (blk "e" [ mov "j" (imm 0) ] (goto "loop_head")
          :: counted_loop ~tag:"loop" ~counter:"j" ~limit:(imm 100)
               ~body:[ spawn "t" "w" [] ]
               ~next:"fin"
          @ [ blk "fin" [] exit_t ]);
        func "w" [ blk "e" [] exit_t ];
      ]
  in
  match (run p).Arde.Machine.outcome with
  | Arde.Machine.Fault { msg = "thread limit exceeded"; _ } -> ()
  | o -> Alcotest.failf "expected thread-limit fault, got %a" Arde.Machine.pp_outcome o

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "division by zero faults" `Quick test_division_by_zero_faults;
    Alcotest.test_case "out-of-bounds faults" `Quick test_out_of_bounds_faults;
    Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
    Alcotest.test_case "rmw semantics" `Quick test_rmw_semantics;
    Alcotest.test_case "check failures recorded" `Quick test_check_failure_recorded;
    Alcotest.test_case "recursive lock faults" `Quick test_recursive_lock_faults;
    Alcotest.test_case "unlock by non-owner faults" `Quick
      test_unlock_not_owner_faults;
    Alcotest.test_case "mutex mutual exclusion" `Slow test_mutual_exclusion;
    Alcotest.test_case "deadlock detected" `Slow test_deadlock_detected;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "barrier releases everyone" `Quick test_barrier_releases_all;
    Alcotest.test_case "semaphore capacity" `Quick test_semaphore_counts;
    Alcotest.test_case "cv wakeup delivers the handoff" `Quick test_cv_wakeup;
    Alcotest.test_case "spurious wakeups break buggy waits" `Slow
      test_spurious_wakeup_injection;
    Alcotest.test_case "trace determinism per seed" `Quick test_determinism_same_seed;
    Alcotest.test_case "round robin is seed-independent" `Quick
      test_round_robin_deterministic;
    Alcotest.test_case "spin enter/exit pairing" `Quick test_spin_events_paired;
    Alcotest.test_case "thread limit" `Quick test_thread_limit_faults;
  ]
