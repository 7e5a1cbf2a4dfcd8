(* Differential tests for the compiled machine.

   The interpreter rewrite is only allowed to change *speed*, never a
   single observable bit.  Three layers enforce that:

   - the committed golden fixtures (test/fixtures/machine_traces.txt,
     recorded from the pre-rewrite interpreter) must be reproduced
     summary-for-summary, chaos runs included;
   - a live differential against [Arde.Machine_ref] (the frozen
     pre-rewrite interpreter) compares full results and full event
     streams, so a fixture-file regeneration can never hide drift;
   - quiet mode (the default discarding observer) must produce the exact
     same result as a tracing run — skipping event construction is an
     optimization, not a semantic switch.

   The satellite regressions ride along: wide-arity calls (the O(n²)
   argument-binding fix), a 64-thread barrier (O(1) arrival), a
   scheduler determinism property over the buffer-based [Sched.pick],
   and a probe that the quiet straight-line step loop allocates
   nothing. *)

module M = Arde.Machine
module MR = Arde.Machine_ref
module TF = Arde_harness.Trace_fixtures
open Arde.Builder

let fixtures_path = "fixtures/machine_traces.txt"

let pp_summary ppf (s : TF.summary) =
  Format.fprintf ppf "len=%d hash=%d steps=%d outcome=%S" s.TF.fx_length
    s.TF.fx_hash s.TF.fx_steps s.TF.fx_outcome

let check_summaries ~what expected got =
  let tbl = Hashtbl.create (List.length expected) in
  List.iter (fun (k, s) -> Hashtbl.replace tbl k s) expected;
  if List.length expected <> List.length got then
    Alcotest.failf "%s: %d fixtures expected, %d produced" what
      (List.length expected) (List.length got);
  List.iter
    (fun (k, s) ->
      match Hashtbl.find_opt tbl k with
      | None -> Alcotest.failf "%s: unexpected fixture key %s" what k
      | Some e ->
          if e <> s then
            Alcotest.failf "%s: trace drift on %s@.  expected %a@.  got      %a"
              what k pp_summary e pp_summary s)
    got

(* Every committed golden fixture — all workloads × policies × seeds plus
   the chaos cross-section — reproduced bit-for-bit by the current
   machine. *)
let test_golden_fixtures () =
  let golden = TF.read_file fixtures_path in
  if List.length golden < 1000 then
    Alcotest.failf "suspiciously few golden fixtures: %d" (List.length golden);
  let got = TF.run_all TF.current_machine in
  check_summaries ~what:"golden" golden got

(* Subsample the fixture enumeration but always keep the chaos groups:
   those exercise spurious wakeups, starved fuel, adversarial policies and
   injected faults. *)
let subset ~every groups =
  List.filteri
    (fun i (g : TF.group) ->
      i mod every = 0
      || Astring.String.is_infix ~affix:"chaos" g.TF.g_name)
    groups

(* The frozen reference interpreter and the current one agree on every
   summary for a live cross-section (chaos included) — guards against a
   regenerated fixture file silently baking in a behaviour change.  The
   sync-dense PARSEC programs also run in their lib+spin(7) form, which
   the fixture enumeration (and so the committed file) leaves out. *)
let test_live_reference_diff () =
  let parsec_rawspin =
    List.map
      (fun name ->
        match Arde_workloads.Parsec.find name with
        | Some (_, p) -> TF.rawspin_group name p ~seeds:[ 1; 2; 3; 4 ]
        | None -> Alcotest.failf "unknown PARSEC workload %s" name)
      [ "streamcluster"; "x264"; "blackscholes" ]
  in
  let groups = subset ~every:6 (TF.groups ()) @ parsec_rawspin in
  List.iter
    (fun (gr : TF.group) ->
      let cur = TF.current_machine.TF.mi_run_group gr in
      let ref_ = TF.reference_machine.TF.mi_run_group gr in
      check_summaries ~what:("live " ^ gr.TF.g_name) ref_ cur)
    groups

let sorted_memory (res : M.result) =
  Hashtbl.fold (fun k v acc -> (k, Array.to_list v) :: acc) res.M.memory []
  |> List.sort compare

let show_outcome o = Format.asprintf "%a" M.pp_outcome o

let check_results ~ctx (a : M.result) (b : M.result) =
  let chk t name = Alcotest.check t (ctx ^ ": " ^ name) in
  chk Alcotest.string "outcome" (show_outcome a.M.outcome)
    (show_outcome b.M.outcome);
  if a.M.outcome <> b.M.outcome then
    Alcotest.failf "%s: structurally different outcomes" ctx;
  chk Alcotest.int "steps" a.M.steps b.M.steps;
  chk Alcotest.int "threads_spawned" a.M.threads_spawned b.M.threads_spawned;
  chk Alcotest.int "context_switches" a.M.context_switches b.M.context_switches;
  if a.M.check_failures <> b.M.check_failures then
    Alcotest.failf "%s: check_failures differ" ctx;
  if sorted_memory a <> sorted_memory b then
    Alcotest.failf "%s: final memories differ" ctx;
  if a.M.thread_steps <> b.M.thread_steps then
    Alcotest.failf "%s: thread_steps differ" ctx

let check_events ~ctx ea eb =
  if Array.length ea <> Array.length eb then
    Alcotest.failf "%s: %d events vs %d" ctx (Array.length ea)
      (Array.length eb);
  Array.iteri
    (fun i x ->
      if x <> eb.(i) then
        Alcotest.failf "%s: event %d differs:@.  %a@.  %a" ctx i
          Arde.Event.pp x Arde.Event.pp eb.(i))
    ea

let cfg_of (gr : TF.group) (rs : TF.run_spec) observer =
  {
    M.policy = rs.TF.rs_policy;
    seed = rs.TF.rs_seed;
    fuel = rs.TF.rs_fuel;
    instrument = gr.TF.g_instrument;
    spurious_wakeups = rs.TF.rs_spurious;
    observer;
  }

(* Full-fidelity differential: identical event streams AND identical
   result records (memory, per-thread step counts, switch counts — fields
   the summaries do not cover) on a smaller cross-section. *)
let test_full_event_diff () =
  let groups = subset ~every:10 (TF.groups ()) in
  List.iter
    (fun (gr : TF.group) ->
      let runs =
        List.filteri
          (fun i (rs : TF.run_spec) -> i < 3 && rs.TF.rs_inject_at = None)
          gr.TF.g_runs
      in
      List.iter
        (fun (rs : TF.run_spec) ->
          let t1 = Arde.Trace.create () in
          let r1 =
            M.run_program (cfg_of gr rs (Arde.Trace.push t1))
              gr.TF.g_program
          in
          let t2 = Arde.Trace.create () in
          let r2 =
            MR.run_program (cfg_of gr rs (Arde.Trace.push t2))
              gr.TF.g_program
          in
          let ctx = rs.TF.rs_key in
          check_results ~ctx r1 r2;
          check_events ~ctx (Arde.Trace.events t1) (Arde.Trace.events t2))
        runs)
    groups

(* Quiet mode — the default [ignore] observer — must not change anything
   observable in the result.  The machine skips event construction
   entirely on that path, so this pins the optimization as pure. *)
let test_quiet_equivalence () =
  let groups = subset ~every:8 (TF.groups ()) in
  List.iter
    (fun (gr : TF.group) ->
      match
        List.find_opt (fun rs -> rs.TF.rs_inject_at = None) gr.TF.g_runs
      with
      | None -> ()
      | Some rs ->
          let tr = Arde.Trace.create () in
          let traced =
            M.run_program (cfg_of gr rs (Arde.Trace.push tr))
              gr.TF.g_program
          in
          let quiet =
            M.run_program (cfg_of gr rs M.default_config.M.observer)
              gr.TF.g_program
          in
          check_results ~ctx:("quiet " ^ rs.TF.rs_key) traced quiet)
    groups

(* A single-threaded register-arithmetic + global load/store loop
   ({!Arde_harness.Gates.threaded_loop} at one thread) under
   [Round_robin]: no PRNG draws, no blocking, no events retained — the
   steady-state straight-line path.  In quiet mode the machine must run
   it without per-step heap allocation; the allocation delta amortizes
   the fixed setup/teardown cost (thread and sync tables, the
   final-memory rebuild) over ~800k steps, so anything per step would
   dominate immediately.  The same holds at 16 threads under [Chunked 6]
   and [Uniform], where picks draw from the PRNG and continue bursts. *)
let test_straightline_zero_alloc () =
  let words_per_step policy ~threads ~iters =
    let what =
      Printf.sprintf "%d thread(s), %s" threads (Arde.Sched.policy_name policy)
    in
    let compiled = M.compile (Arde_harness.Gates.threaded_loop ~threads ~iters) in
    let cfg = { M.default_config with M.policy; fuel = 5_000_000 } in
    ignore (M.run cfg compiled);
    let a0 = Arde_harness.Gates.alloc_words () in
    let res = M.run cfg compiled in
    let words = Arde_harness.Gates.alloc_words () -. a0 in
    Alcotest.(check string) (what ^ " outcome") "finished" (show_outcome res.M.outcome);
    let wps = words /. float_of_int (max 1 res.M.steps) in
    if wps >= 0.05 then
      Alcotest.failf "%s: %.4f words/step over %d steps (want < 0.05)" what wps
        res.M.steps
  in
  words_per_step (Arde.Sched.Round_robin 1_000_000) ~threads:1 ~iters:100_000;
  (* Sixteen threads: every multi-candidate pick, its PRNG draws and the
     runnable buffer must stay allocation-free too. *)
  List.iter
    (fun policy -> words_per_step policy ~threads:16 ~iters:20_000)
    [ Arde.Sched.Chunked 6; Arde.Sched.Uniform ]

(* --- satellite: wide-arity calls ------------------------------------- *)

(* 100-parameter function: argument binding is now a single left-to-right
   pass into the frame's register file (it used to be List.iteri +
   List.nth, quadratic in arity).  The call must bind every argument to
   the right parameter and agree with the reference interpreter. *)
let test_wide_call () =
  let n = 100 in
  let params = List.init n (Printf.sprintf "p%d") in
  let sum_body =
    mov "acc" (imm 0)
    :: List.map (fun p -> addi "acc" (r "acc") (r p)) params
    @ [ store (g "out") (r "acc") ]
  in
  let p =
    program
      ~globals:[ global "out" () ]
      ~entry:"main"
      [
        func "main"
          [ blk "entry" [ call "wide" (List.init n (fun i -> imm (3 * i))) ] exit_t ];
        func "wide" ~params [ blk "entry" sum_body ret0 ];
      ]
  in
  let tr = Arde.Trace.create () in
  let res =
    M.run_program
      { M.default_config with M.observer = Arde.Trace.push tr }
      p
  in
  Alcotest.(check string)
    "outcome" "finished" (show_outcome res.M.outcome);
  Alcotest.(check int) "sum of 3*i" (3 * (n * (n - 1) / 2))
    (M.read_global res "out" 0);
  let tr2 = Arde.Trace.create () in
  let res2 =
    MR.run_program
      { M.default_config with M.observer = Arde.Trace.push tr2 }
      p
  in
  check_results ~ctx:"wide-call" res res2;
  check_events ~ctx:"wide-call" (Arde.Trace.events tr) (Arde.Trace.events tr2)

(* --- satellite: 64-thread barrier ------------------------------------ *)

(* Barrier arrival is now an O(1) counter + arrival-order array instead of
   List.length over an accumulating list.  At N=64 (the thread-limit
   maximum: main + 63 workers) every thread must pass, in the same wake
   order as the reference. *)
let test_barrier_64 () =
  let workers = 63 in
  let worker =
    func "w" ~params:[ "me" ]
      [
        blk "entry"
          [ barrier_wait (g "bar"); store (gi "done" (r "me")) (imm 1) ]
          ret0;
      ]
  in
  let spawns =
    List.init workers (fun i ->
        spawn (Printf.sprintf "t%d" i) "w" [ imm i ])
  in
  let joins =
    List.init workers (fun i -> join (r (Printf.sprintf "t%d" i)))
  in
  let p =
    program
      ~globals:[ global "bar" (); global "done" ~size:workers () ]
      ~entry:"main"
      [
        func "main"
          [
            blk "entry"
              ((barrier_init (g "bar") (imm (workers + 1)) :: spawns)
              @ (barrier_wait (g "bar") :: joins))
              exit_t;
          ];
        worker;
      ]
  in
  let run_with runner =
    let tr = Arde.Trace.create () in
    let cfg =
      {
        M.default_config with
        M.policy = Arde.Sched.Chunked 4;
        seed = 9;
        observer = Arde.Trace.push tr;
      }
    in
    (runner cfg p, tr)
  in
  let res, tr = run_with M.run_program in
  Alcotest.(check string)
    "outcome" "finished" (show_outcome res.M.outcome);
  Alcotest.(check int) "threads" (workers + 1) res.M.threads_spawned;
  for i = 0 to workers - 1 do
    Alcotest.(check int)
      (Printf.sprintf "done[%d]" i)
      1
      (M.read_global res "done" i)
  done;
  let passes =
    Array.fold_left
      (fun n -> function Arde.Event.Barrier_pass _ -> n + 1 | _ -> n)
      0 (Arde.Trace.events tr)
  in
  Alcotest.(check int) "one pass per thread" (workers + 1) passes;
  let res2, tr2 = run_with MR.run_program in
  check_results ~ctx:"barrier-64" res res2;
  check_events ~ctx:"barrier-64" (Arde.Trace.events tr) (Arde.Trace.events tr2)

(* --- satellite: scheduler determinism property ----------------------- *)

(* [Sched.pick] reads a caller-owned buffer.  For every policy: the pick
   sequence is a pure function of (seed, successive runnable sets, yield
   hints) — same inputs give the same picks even when the buffer carries
   trailing garbage — and every pick is a member of the offered set. *)
let prop_sched_determinism =
  let gen =
    QCheck2.Gen.pair
      (QCheck2.Gen.int_range 1 1000)
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 40)
         (QCheck2.Gen.pair (QCheck2.Gen.int_range 1 255) QCheck2.Gen.bool))
  in
  let policies =
    [
      Arde.Sched.Round_robin 1;
      Arde.Sched.Round_robin 3;
      Arde.Sched.Uniform;
      Arde.Sched.Chunked 1;
      Arde.Sched.Chunked 6;
    ]
  in
  let tids_of_mask mask =
    List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"Sched.pick is deterministic and sound"
       gen
       (fun (seed, steps) ->
         List.for_all
           (fun policy ->
             let s1 = Arde.Sched.create policy ~seed in
             let s2 = Arde.Sched.create policy ~seed in
             let exact = Array.make 8 0 in
             let padded = Array.make 16 99 in
             List.for_all
               (fun (mask, yield_hint) ->
                 let tids = tids_of_mask mask in
                 let n = List.length tids in
                 List.iteri (fun i t -> exact.(i) <- t) tids;
                 Array.fill padded 0 16 99;
                 List.iteri (fun i t -> padded.(i) <- t) tids;
                 if yield_hint then begin
                   Arde.Sched.force_switch s1;
                   Arde.Sched.force_switch s2
                 end;
                 let p1 = Arde.Sched.pick s1 ~runnable:exact ~n in
                 let p2 = Arde.Sched.pick s2 ~runnable:padded ~n in
                 p1 = p2 && List.mem p1 tids)
               steps)
           policies))

(* The machine's spin cache, against the definition it precomputes: per
   block, the spin loop it heads (-1 if none) and every spin id whose
   body contains it ([in_loop] filtered over all ids, ascending); per
   instruction, the loops it is a condition load of. *)
let check_spin_cache ~ctx (prog : Arde.Types.program) inst cpl =
  let module I = Arde.Instrument in
  let ids =
    List.sort compare (List.map (fun (s : I.spin) -> s.I.s_id) (I.spins inst))
  in
  let sc = M.export_spin_cache cpl inst in
  let expect what fname lbl want got =
    if want <> got then
      Alcotest.failf "%s %s:%s %s: expected [%s], cached [%s]" ctx fname lbl
        what
        (String.concat ";" (List.map string_of_int want))
        (String.concat ";" (List.map string_of_int got))
  in
  List.iteri
    (fun fid (f : Arde.Types.func) ->
      List.iteri
        (fun bi (b : Arde.Types.block) ->
          let fname = f.Arde.Types.fname and lbl = b.Arde.Types.lbl in
          expect "header" fname lbl
            [ Option.value ~default:(-1) (I.header_at inst ~fname ~lbl) ]
            [ sc.M.sc_header.(fid).(bi) ];
          expect "loops" fname lbl
            (List.filter (I.in_loop inst ~fname ~lbl) ids)
            (Array.to_list sc.M.sc_inloop.(fid).(bi));
          let tags = sc.M.sc_tags.(fid).(bi) in
          expect "instruction count" fname lbl
            [ List.length b.Arde.Types.ins ] [ Array.length tags ];
          List.iteri
            (fun pc _ ->
              expect (Printf.sprintf "tags@%d" pc) fname lbl
                (I.marked_loops_at inst
                   { Arde.Types.lfunc = fname; lblk = lbl; lidx = pc })
                (Array.to_list tags.(pc)))
            b.Arde.Types.ins)
        f.Arde.Types.blocks)
    prog.Arde.Types.funcs

(* Two spin loops nested in one function: the inner loop's blocks belong
   to both, so their loop lists pin the ascending order. *)
let nested_spins =
  program
    ~globals:[ global "x" (); global "y" () ]
    ~entry:"main"
    [
      func "main"
        [
          blk "e" [] (goto "oh");
          blk "oh" [ load "a" (g "x") ] (br (r "a") "out" "ih");
          blk "ih" [ load "b" (g "y") ] (br (r "b") "oh_back" "ih_body");
          blk "ih_body" [ yield ] (goto "ih");
          blk "oh_back" [] (goto "oh");
          blk "out" [] exit_t;
        ];
    ]

let test_spin_cache_definition () =
  let inst = Arde.Instrument.analyze ~k:7 nested_spins in
  Alcotest.(check int) "both nested loops are spin loops" 2
    (List.length (Arde.Instrument.spins inst));
  let cpl = M.compile nested_spins in
  Alcotest.(check bool) "a block sits in both loops" true
    (Array.exists
       (Array.exists (fun ids -> Array.length ids = 2))
       (M.export_spin_cache cpl inst).M.sc_inloop);
  check_spin_cache ~ctx:"nested" nested_spins inst cpl;
  (* Every spin mode analyzes one of two forms of a program at some k:
     helgrind+spin the program as written, nolib+spin and
     nolib+spin+locks its lowering.  k = 7 is every Table-1 spin mode;
     k = 8, Table 2's widest window, accepts a superset of its loops. *)
  let forms (name, program, style) =
    [ (name, program); (name ^ " lowered", Arde.Lower.lower ~style program) ]
  in
  List.iter
    (fun (name, program) ->
      let cpl = M.compile program in
      List.iter
        (fun k ->
          check_spin_cache
            ~ctx:(Printf.sprintf "%s k=%d" name k)
            program (Arde.Instrument.analyze ~k program) cpl)
        [ 7; 8 ])
    (List.concat_map forms
       (List.map
          (fun (c : Arde_workloads.Racey.case) ->
            (c.Arde_workloads.Racey.name, c.Arde_workloads.Racey.program,
             Arde.Lower.Realistic))
          (Arde_workloads.Racey.all ())
       @ List.map
           (fun ((info : Arde_workloads.Parsec.info), p) ->
             (info.Arde_workloads.Parsec.pname, p,
              info.Arde_workloads.Parsec.nolib_style))
           (Arde_workloads.Parsec.all ())))

(* The first read or write of [evs] that breaks the access contract of
   [Event]: an id outside [0, 2^20), an id or base seen before with
   another partner, or a negative index. *)
let contract_breach evs =
  let base_of = Hashtbl.create 16 and id_of = Hashtbl.create 16 in
  let partner tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some v' -> v' = v
    | None ->
        Hashtbl.add tbl k v;
        true
  in
  Array.find_opt
    (function
      | Arde.Event.Read { base; base_id; idx; _ }
      | Arde.Event.Write { base; base_id; idx; _ } ->
          not
            (0 <= base_id
            && base_id < Arde.Event.max_base_id
            && partner base_of base_id base
            && partner id_of base base_id
            && idx >= 0)
      | _ -> false)
    evs

(* Both machines meet the contract on every catalog program (unit-suite
   cases and PARSEC) in the program form of every Table-1 mode. *)
let test_access_contract () =
  let opts = Arde.Options.default in
  let programs =
    List.map
      (fun (c : Arde_workloads.Racey.case) ->
        (c.Arde_workloads.Racey.name, c.Arde_workloads.Racey.program))
      (Arde_workloads.Racey.all ())
    @ List.map
        (fun ((info : Arde_workloads.Parsec.info), p) ->
          (info.Arde_workloads.Parsec.pname, p))
        (Arde_workloads.Parsec.all ())
  in
  List.iter
    (fun (name, program) ->
      List.iter
        (fun mode ->
          let p =
            Arde.Analysis_cache.prepare ~style:opts.Arde.Options.lower_style
              ~count_callees:opts.Arde.Options.count_callee_blocks mode program
          in
          let cfg observer =
            {
              M.policy = opts.Arde.Options.policy;
              seed = 1;
              fuel = 20_000;
              instrument = p.Arde.Analysis_cache.p_instrument;
              spurious_wakeups = false;
              observer;
            }
          in
          let check machine run =
            let t = Arde.Trace.create () in
            ignore (run (cfg (Arde.Trace.push t)));
            match contract_breach (Arde.Trace.events t) with
            | None -> ()
            | Some ev ->
                Alcotest.failf "%s under %s (%s): %a" name
                  (Arde.Config.mode_name mode) machine Arde.Event.pp ev
          in
          check "Machine" (fun c -> M.run c p.Arde.Analysis_cache.p_compiled);
          check "Machine_ref" (fun c ->
              MR.run_program c p.Arde.Analysis_cache.p_program))
        Arde.Config.all_table1_modes)
    programs

let suite =
  [
    Alcotest.test_case "golden fixtures reproduced bit-for-bit" `Slow
      test_golden_fixtures;
    Alcotest.test_case "live diff vs frozen reference (chaos incl.)" `Slow
      test_live_reference_diff;
    Alcotest.test_case "full event-stream + result diff" `Slow
      test_full_event_diff;
    Alcotest.test_case "quiet mode changes nothing observable" `Quick
      test_quiet_equivalence;
    Alcotest.test_case "100-parameter call binds correctly" `Quick
      test_wide_call;
    Alcotest.test_case "64-thread barrier passes exactly once each" `Quick
      test_barrier_64;
    Alcotest.test_case "spin cache matches its definition" `Quick
      test_spin_cache_definition;
    Alcotest.test_case "every machine stream meets the access contract"
      `Quick test_access_contract;
    prop_sched_determinism;
    Alcotest.test_case "straight-line loop allocates nothing per step" `Quick
      test_straightline_zero_alloc;
  ]
