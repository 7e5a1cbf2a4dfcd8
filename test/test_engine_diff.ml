(* The optimized engine's contract: byte-identical results to the frozen
   {!Engine_ref} oracle.  Every test here drives the identical input —
   full pipeline runs over the workload catalog, chaos-injected runs,
   fuzzed programs, or hand-fed event streams — through both engines and
   compares the serialized output:

   - full results (merged report, per-seed spin edges, health verdict)
     across the catalog × 16 seeds × every Table-1 mode;
   - the same under injected perturbations (crashes, faults, spurious
     wakeups, starvation, hostile schedules);
   - differential fuzzing over generated programs;
   - hand-built 128- and 512-thread barrier- and join-heavy streams,
     past the machine's thread cap;
   - epoch promote/demote edge cases the flat representation could get
     wrong: same-thread re-reads, read-shared → write report ordering,
     atomic chains, long-running priming;
   - the memory accounting fix: open spin-accumulator tables count
     toward [memory_words] in both engines. *)

module D = Arde.Driver
module O = Arde.Options
module J = Arde.Json
module C = Arde.Config
module E = Arde.Engine
module ER = Arde.Engine_ref
module Ev = Arde_runtime.Event
module Sh = Arde.Shadow_epoch

let seeds16 = List.init 16 (fun i -> i + 1)

(* The two engines legitimately differ in live-heap footprint (epochs vs
   clock tables) and a [jobs] clamp note depends on the host, so blank
   both before comparing; everything else — reports, spin edges, per-seed
   outcomes, health — must match byte for byte. *)
let normalize r =
  {
    r with
    D.runs = List.map (fun sr -> { sr with D.sr_memory_words = 0 }) r.D.runs;
    D.health =
      {
        r.D.health with
        D.h_notes =
          List.filter
            (fun n ->
              not (String.length n >= 5 && String.sub n 0 5 = "jobs:"))
            r.D.health.D.h_notes;
      };
  }

let result_bytes r = J.to_string (D.result_to_json (normalize r))

let modes = C.all_table1_modes @ [ C.Nolib_spin_locks 7 ]

let check_diff ?options name mode p =
  let input = Arde.Input.Program p in
  let opt = D.run ~ctx:(D.ctx ?options ~engine:D.opt_engine ()) ~mode input in
  let ref_ = D.run ~ctx:(D.ctx ?options ~engine:D.ref_engine ()) ~mode input in
  Alcotest.(check string)
    (Printf.sprintf "%s under %s: optimized = reference" name
       (C.mode_name mode))
    (result_bytes ref_) (result_bytes opt)

(* ------------------------------------------------------------------ *)
(* Catalog × seeds × modes                                             *)

let test_catalog_differential () =
  let options = O.make ~seeds:seeds16 ~fuel:150_000 () in
  List.iter
    (fun (c : Arde_workloads.Racey.case) ->
      List.iter (fun mode -> check_diff ~options c.name mode c.program) modes)
    (Arde_workloads.Racey.all ())

let test_parsec_differential () =
  let options = O.make ~seeds:[ 1; 2; 3; 4 ] ~fuel:150_000 () in
  List.iter
    (fun name ->
      match Arde_workloads.Parsec.find name with
      | None -> Alcotest.failf "unknown PARSEC workload %s" name
      | Some (_info, p) ->
          List.iter (fun mode -> check_diff ~options name mode p) modes)
    [ "streamcluster"; "x264"; "bodytrack"; "blackscholes" ]

(* ------------------------------------------------------------------ *)
(* Chaos-injected runs                                                 *)

let test_chaos_differential () =
  let base = O.make ~seeds:[ 1; 2; 3; 4; 5 ] ~fuel:100_000 () in
  let perturbations =
    [
      Arde.Chaos.Crash_at 40;
      Arde.Chaos.Fault_at 25;
      Arde.Chaos.Spurious_wakeups;
      Arde.Chaos.Starve_fuel 2_000;
      Arde.Chaos.Adversarial_policy Arde_runtime.Sched.Uniform;
      Arde.Chaos.Shift_seeds 3;
    ]
  in
  let cases =
    List.filteri (fun i _ -> i mod 24 = 0) (Arde_workloads.Racey.all ())
  in
  List.iter
    (fun (c : Arde_workloads.Racey.case) ->
      List.iter
        (fun p ->
          let options = Arde.Chaos.apply base p in
          List.iter
            (fun mode ->
              check_diff ~options
                (Format.asprintf "%s/%a" c.name Arde.Chaos.pp_perturbation p)
                mode c.program)
            [ C.Helgrind_lib; C.Nolib_spin 7 ])
        perturbations)
    cases

(* ------------------------------------------------------------------ *)
(* Differential fuzzing                                                *)

let test_fuzz_differential () =
  let options = O.make ~seeds:[ 1; 2; 3 ] ~fuel:100_000 () in
  for pseed = 1 to 12 do
    let p = Test_fuzz.gen_program pseed in
    List.iter
      (fun mode ->
        check_diff ~options (Printf.sprintf "fuzz#%d" pseed) mode p)
      [ C.Helgrind_lib; C.Helgrind_spin 7; C.Nolib_spin 7; C.Drd ]
  done

(* ------------------------------------------------------------------ *)
(* Epoch representation edge cases                                     *)

let loc_at i =
  { Arde.Types.lfunc = "f"; lblk = Printf.sprintf "b%d" i; lidx = i }

let test_epoch_same_thread_reread () =
  let sh = Sh.create () in
  let c = Sh.cell sh ~base_id:0 ~base:"x" ~idx:0 in
  Sh.record_read c ~tid:1 ~clk:3 ~loc:(loc_at 0);
  Sh.record_read c ~tid:1 ~clk:5 ~loc:(loc_at 1);
  Alcotest.(check int) "same-thread re-read stays a single epoch" 1 c.Sh.rd_tid;
  Alcotest.(check int) "epoch clock advanced" 5 c.Sh.rd_clk;
  Alcotest.(check (list int)) "no promoted list" []
    (List.map (fun (r : Sh.read) -> r.Sh.r_tid) c.Sh.rd_list)

let test_epoch_promote_order () =
  let sh = Sh.create () in
  let c = Sh.cell sh ~base_id:0 ~base:"x" ~idx:0 in
  Sh.record_read c ~tid:1 ~clk:3 ~loc:(loc_at 0);
  Sh.record_read c ~tid:2 ~clk:4 ~loc:(loc_at 1);
  Alcotest.(check int) "promoted" Sh.promoted c.Sh.rd_tid;
  Alcotest.(check (list int)) "newest first, like the reference list"
    [ 2; 1 ]
    (List.map (fun (r : Sh.read) -> r.Sh.r_tid) c.Sh.rd_list);
  (* the accessor's old entry is replaced wherever it sits *)
  Sh.record_read c ~tid:1 ~clk:7 ~loc:(loc_at 2);
  Alcotest.(check (list int)) "tid 1 re-read moves to the front" [ 1; 2 ]
    (List.map (fun (r : Sh.read) -> r.Sh.r_tid) c.Sh.rd_list);
  Sh.record_read c ~tid:1 ~clk:9 ~loc:(loc_at 3);
  Alcotest.(check (list int)) "head replacement keeps one entry per thread"
    [ 1; 2 ]
    (List.map (fun (r : Sh.read) -> r.Sh.r_tid) c.Sh.rd_list);
  (match c.Sh.rd_list with
  | { Sh.r_clk; _ } :: _ ->
      Alcotest.(check int) "head carries the newest clock" 9 r_clk
  | [] -> Alcotest.fail "promoted list vanished");
  Sh.clear_reads c;
  Alcotest.(check int) "a write demotes to the empty epoch" Sh.none c.Sh.rd_tid;
  Alcotest.(check int) "and empties the list" 0 (List.length c.Sh.rd_list)

(* Hand-fed event streams through both engines: the report (and its
   internal insertion order, which drives dedup and the cap) must match
   byte for byte. *)
let engines_agree name e r events =
  List.iter (E.observer e) events;
  List.iter (ER.observer r) events;
  Alcotest.(check string) name
    (J.to_string (Arde.Report.to_json (ER.report r)))
    (J.to_string (Arde.Report.to_json (E.report e)));
  Alcotest.(check int) (name ^ ": spin edges") (ER.n_spin_edges r)
    (E.n_spin_edges e)

let reports_equal_on name cfg events =
  let e = E.create cfg ~instrument:None in
  let r = ER.create cfg ~instrument:None in
  engines_agree name e r events;
  (e, r)

let rd ?(kind = Ev.Plain) ?(spin = []) tid i =
  Ev.Read { tid; base = "g"; base_id = -1; idx = 0; value = 0;
            loc = loc_at i; kind; spin }

let wr ?(kind = Ev.Plain) tid i =
  Ev.Write { tid; base = "g"; base_id = -1; idx = 0; value = 1;
             loc = loc_at i; kind }

let start tid = Ev.Thread_start { tid }

let test_read_shared_then_write () =
  (* two concurrent readers, then an unordered write: the warning must
     list both reads, newest first — the reference insertion order *)
  ignore
    (reports_equal_on "read-shared -> write report order"
       (C.make C.Helgrind_lib)
       [ start 0; start 1; start 2; rd 1 1; rd 2 2; wr 0 3; rd 1 4; wr 0 5 ])

let test_atomic_chain () =
  (* atomic release/acquire chains order the plain accesses around them
     when atomics count as sync (spin modes) — and don't when they don't *)
  List.iter
    (fun mode ->
      ignore
        (reports_equal_on
           (Printf.sprintf "atomic chain under %s" (C.mode_name mode))
           (C.make mode)
           [
             start 0; start 1;
             wr 0 1; wr ~kind:Ev.Atomic 0 2;
             rd ~kind:Ev.Atomic 1 3; rd 1 4;
             wr ~kind:Ev.Atomic 1 5; rd ~kind:Ev.Atomic 0 6; wr 0 7;
           ]))
    [ C.Helgrind_lib; C.Nolib_spin 7; C.Drd ]

let test_long_running_priming () =
  (* long-running sensitivity: the first would-be warning arms the cell
     silently, the second fires — in both engines, at the same access *)
  let cfg = C.make ~sensitivity:Arde.Msm.Long_running C.Helgrind_lib in
  let e, r =
    reports_equal_on "long-running priming" cfg
      [ start 0; start 1; wr 0 1; wr 1 2; wr 0 3; wr 1 4 ]
  in
  Alcotest.(check bool) "something was reported after priming" true
    (Arde.Report.n_contexts (E.report e) > 0);
  ignore r

let test_spin_epoch_demotion () =
  (* a spinning read records the writer's clock; the write in between
     demotes the read epoch — spin edges must still match *)
  let cfg = C.make (C.Nolib_spin 7) in
  ignore
    (reports_equal_on "spin record across demotion" cfg
       [
         start 0; start 1;
         wr 0 1;
         Ev.Spin_enter { tid = 1; loop_id = 0; ctx = 7 };
         rd ~spin:[ (0, 7) ] 1 2;
         wr 0 3;
         rd ~spin:[ (0, 7) ] 1 4;
         Ev.Spin_exit { tid = 1; loop_id = 0; ctx = 7 };
         rd 1 5;
       ])

(* The barrier- and join-heavy 128/512-thread streams the engine speed
   gates replay, past the machine's thread cap: both engines, created
   with the raised capacity, must agree on the report (each stream ends
   in a deliberate racy pair) and the spin edges. *)
let test_synthetic_high_width () =
  List.iter
    (fun (s : Arde_harness.Gates.synthetic) ->
      let cfg = C.make s.s_mode in
      let e = E.create ~threads:s.s_threads cfg ~instrument:None in
      let name = Printf.sprintf "%s under %s" s.s_name (C.mode_name s.s_mode) in
      engines_agree name e
        (ER.create ~threads:s.s_threads cfg ~instrument:None)
        (Array.to_list (Lazy.force s.s_events));
      Alcotest.(check bool) (name ^ ": the racy pair is reported") true
        (Arde.Report.n_contexts (E.report e) > 0))
    Arde_harness.Gates.synthetic

(* ------------------------------------------------------------------ *)
(* memory_words counts open spin accumulators (the accounting fix)     *)

let test_memory_words_spin_acc () =
  let events_open =
    [
      start 0; start 1;
      wr 0 1;
      Ev.Spin_enter { tid = 1; loop_id = 0; ctx = 3 };
      rd ~spin:[ (0, 3) ] 1 2;
    ]
  in
  let close = [ Ev.Spin_exit { tid = 1; loop_id = 0; ctx = 3 } ] in
  let measure mk_observe mk_words create =
    let t = create () in
    List.iter (mk_observe t) events_open;
    let opened = mk_words t in
    List.iter (mk_observe t) close;
    (opened, mk_words t)
  in
  let cfg = C.make (C.Nolib_spin 7) in
  let opt_open, opt_closed =
    measure E.observer E.memory_words (fun () -> E.create cfg ~instrument:None)
  in
  let ref_open, ref_closed =
    measure ER.observer ER.memory_words (fun () ->
        ER.create cfg ~instrument:None)
  in
  Alcotest.(check bool)
    "optimized: open spin accumulator adds words" true
    (opt_open > opt_closed);
  Alcotest.(check bool)
    "reference: open spin accumulator adds words" true
    (ref_open > ref_closed)

let suite =
  [
    Alcotest.test_case "catalog x 16 seeds x modes differential" `Slow
      test_catalog_differential;
    Alcotest.test_case "PARSEC differential" `Slow test_parsec_differential;
    Alcotest.test_case "chaos-injected differential" `Slow
      test_chaos_differential;
    Alcotest.test_case "fuzzed-program differential" `Slow
      test_fuzz_differential;
    Alcotest.test_case "epoch: same-thread re-read" `Quick
      test_epoch_same_thread_reread;
    Alcotest.test_case "epoch: promote order and demotion" `Quick
      test_epoch_promote_order;
    Alcotest.test_case "read-shared then write" `Quick
      test_read_shared_then_write;
    Alcotest.test_case "atomic chains" `Quick test_atomic_chain;
    Alcotest.test_case "long-running priming" `Quick
      test_long_running_priming;
    Alcotest.test_case "spin record across demotion" `Quick
      test_spin_epoch_demotion;
    Alcotest.test_case "memory_words counts spin accumulators" `Quick
      test_memory_words_spin_acc;
    Alcotest.test_case "synthetic 128/512-thread streams" `Slow
      test_synthetic_high_width;
  ]
