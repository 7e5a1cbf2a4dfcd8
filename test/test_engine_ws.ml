(* The engine's per-domain workspace: what a seed reports must not depend
   on what the domain detected before, and a warm workspace must leave
   the per-event path next to allocation-free.

   - [memory_words], Figure 1's input, is pinned over the PARSEC
     programs × Table-1 modes × seeds 1-2: it is this seed's footprint,
     not the capacity a reused workspace has grown to;
   - a warm engine stays within its allocation budget on dedup and x264;
   - one domain running, in turn, two programs, a 128-thread stream, a
     crashed seed, [compare_on_trace]'s concurrent engines and a resident
     pool gives the bytes fresh domains and the reference engine give;
   - a workspace grown past the retention cap is dropped. *)

module D = Arde.Driver
module O = Arde.Options
module C = Arde.Config
module E = Arde.Engine
module ER = Arde.Engine_ref
module J = Arde.Json
module Ev = Arde_runtime.Event
module Parsec = Arde_workloads.Parsec

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let parsec name =
  match Parsec.find name with
  | Some v -> v
  | None -> Alcotest.failf "no PARSEC program %s" name

let parsec_options (info : Parsec.info) =
  O.make ~sensitivity:Arde.Msm.Long_running
    ~lower_style:info.Parsec.nolib_style ~fuel:4_000_000 ~seeds:[ 1; 2 ]
    ~jobs:1 ()

let on_fresh_domain f = Domain.join (Domain.spawn f)

(* -- memory_words, pinned ------------------------------------------- *)

(* Every seed's [memory_words], one line per program × mode, in the
   catalog's order. *)
let parsec_memory_words () =
  String.concat "\n"
    (List.concat_map
       (fun ((info : Parsec.info), program) ->
         List.map
           (fun mode ->
             let r =
               D.run
                 ~ctx:(D.ctx ~options:(parsec_options info) ())
                 ~mode (Arde.Input.Program program)
             in
             Printf.sprintf "%s %s %s" info.Parsec.pname (C.mode_id mode)
               (String.concat " "
                  (List.map
                     (fun sr -> string_of_int sr.D.sr_memory_words)
                     r.D.runs)))
           C.all_table1_modes)
       (Parsec.all ()))

(* Taken with engines built fresh for every seed, before the workspace
   was kept between seeds. *)
let memory_words_pin = "b236eb181c35e2baa98ab92d6bbd1d5e"

let test_memory_words_pin () =
  let lines = parsec_memory_words () in
  checks "MD5 of every PARSEC seed's memory_words" memory_words_pin
    (Digest.to_hex (Digest.string lines))

(* -- the allocation budget ------------------------------------------ *)

(* The events of seeds 1 and 2 of a PARSEC program under [mode], with
   the benchmark's knobs, collected by the injector hook, plus an engine
   factory over the run's prepared bundle. *)
let parsec_streams name mode =
  let info, program = parsec name in
  let options = parsec_options info in
  let collected = Hashtbl.create 2 in
  let inject ~seed =
    let buf = Arde.Trace.create () in
    Hashtbl.replace collected seed buf;
    Arde.Trace.push buf
  in
  ignore
    (D.run
       ~ctx:(D.ctx ~options:(O.with_inject (Some inject) options) ())
       ~mode (Arde.Input.Program program));
  let p =
    Arde.Analysis_cache.prepare ~style:options.O.lower_style
      ~count_callees:options.O.count_callee_blocks mode program
  in
  let engine () =
    E.create ~cv_mutexes:p.Arde.Analysis_cache.p_cv_mutexes
      ~inferred_locks:p.Arde.Analysis_cache.p_inferred_locks
      (C.make ~sensitivity:options.O.sensitivity mode)
      ~instrument:p.Arde.Analysis_cache.p_instrument
  in
  List.map
    (fun seed ->
      ( Printf.sprintf "%s %s seed %d" name (C.mode_id mode) seed,
        engine,
        Arde.Trace.events (Hashtbl.find collected seed) ))
    [ 1; 2 ]

(* One seed through an engine, finished the way the driver does it. *)
let detect engine evs =
  let e = engine () in
  Array.iter (E.observer e) evs;
  let words = E.memory_words e in
  E.finish e;
  (J.to_string (Arde.Report.to_json (E.report e)), E.n_spin_edges e, words)

(* A warm engine allocates next to nothing: after one pass over the
   streams has grown the domain's workspace to the largest of them,
   detecting each again takes no word straight in the major heap and at
   most 0.2 words per event in all (it reads about 0.05; an engine that
   builds a fresh cell at each seed's first touch reads about 0.35).  [Gc.counters] is exact only when no
   minor collection falls inside the measurement, so the minor heap is
   made larger than the whole budget for the duration. *)
let test_allocation_budget () =
  let streams =
    List.concat_map
      (fun name ->
        List.concat_map (parsec_streams name)
          [ C.Helgrind_spin 7; C.Nolib_spin 7 ])
      [ "dedup"; "x264" ]
  in
  let warm = List.map (fun (_, engine, evs) -> detect engine evs) streams in
  let control = Gc.get () in
  Gc.set { control with Gc.minor_heap_size = 1 lsl 21 };
  Fun.protect
    ~finally:(fun () -> Gc.set control)
    (fun () ->
      let words = ref 0. and events = ref 0 in
      List.iter2
        (fun (label, engine, evs) expected ->
          Gc.minor ();
          let minor0, promoted0, major0 = Gc.counters () in
          let e = engine () in
          Array.iter (E.observer e) evs;
          let mem = E.memory_words e in
          E.finish e;
          let minor1, promoted1, major1 = Gc.counters () in
          let direct = major1 -. major0 -. (promoted1 -. promoted0) in
          checkb (label ^ ": same result as the first pass") true
            (( J.to_string (Arde.Report.to_json (E.report e)),
               E.n_spin_edges e,
               mem )
            = expected);
          Alcotest.(check (float 0.)) (label ^ ": direct major words") 0. direct;
          words := !words +. (minor1 -. minor0) +. direct;
          events := !events + Array.length evs)
        streams warm;
      let per_event = !words /. float_of_int !events in
      checkb
        (Printf.sprintf "at most 0.2 words per event (%.3f over %d events)"
           per_event !events)
        true (per_event <= 0.2))

(* -- reuse ----------------------------------------------------------- *)

let result_bytes r = J.to_string (D.result_to_json r)

let parsec_run ?pool ?(options = fun o -> o) name mode () =
  let info, program = parsec name in
  D.run
    ~ctx:(D.ctx ~options:(options (parsec_options info)) ?pool ())
    ~mode (Arde.Input.Program program)

let synthetic_128 =
  List.find
    (fun (s : Arde_harness.Gates.synthetic) -> s.s_threads = 128)
    Arde_harness.Gates.synthetic

let synthetic_report (s : Arde_harness.Gates.synthetic) =
  let e = E.create ~threads:s.s_threads (C.make s.s_mode) ~instrument:None in
  Array.iter (E.observer e) (Lazy.force s.s_events);
  let words = E.memory_words e in
  E.finish e;
  (J.to_string (Arde.Report.to_json (E.report e)), E.n_spin_edges e, words)

let synthetic_ref (s : Arde_harness.Gates.synthetic) =
  let e = ER.create ~threads:s.s_threads (C.make s.s_mode) ~instrument:None in
  Array.iter (ER.observer e) (Lazy.force s.s_events);
  (J.to_string (Arde.Report.to_json (ER.report e)), ER.n_spin_edges e)

let crashing o = Arde.Chaos.apply o (Arde.Chaos.Crash_at 5_000)
let compare_modes = [ C.Helgrind_lib; C.Helgrind_spin 7; C.Drd ]

let compared () =
  let _, program = parsec "dedup" in
  List.map
    (fun (m, r) -> (C.mode_id m, J.to_string (Arde.Report.to_json r)))
    (D.compare_on_trace
       ~options:(O.make ~seeds:[ 1; 2 ] ~fuel:4_000_000 ())
       ~k:7 program compare_modes)

(* What a domain detected before cannot leak into what it detects next.
   On one domain: dedup under lib+spin(7), x264 under nolib+spin(7), a
   128-thread stream (a workspace of its own), a seed crashed by chaos
   mid-run (its workspace dropped with it), [compare_on_trace]'s
   engines (live at once, so all but one build their own), then dedup
   and x264 again.  Every result must be the bytes a fresh domain gives,
   and the reference engine's up to the memory figure. *)
let test_workspace_reuse () =
  let dedup = parsec_run "dedup" (C.Helgrind_spin 7) in
  let x264 = parsec_run "x264" (C.Nolib_spin 7) in
  let crashed = parsec_run ~options:crashing "dedup" C.Helgrind_lib in
  let fresh f = on_fresh_domain (fun () -> f ()) in
  let want_dedup = result_bytes (fresh dedup)
  and want_x264 = result_bytes (fresh x264)
  and want_syn = fresh (fun () -> synthetic_report synthetic_128)
  and want_crashed = result_bytes (fresh crashed)
  and want_compared = fresh compared in
  let got =
    on_fresh_domain (fun () ->
        let d1 = result_bytes (dedup ()) in
        let x1 = result_bytes (x264 ()) in
        let syn = synthetic_report synthetic_128 in
        let cr = result_bytes (crashed ()) in
        let cmp = compared () in
        let d2 = result_bytes (dedup ()) in
        let x2 = result_bytes (x264 ()) in
        (d1, x1, syn, cr, cmp, d2, x2))
  in
  let d1, x1, syn, cr, cmp, d2, x2 = got in
  checks "dedup lib+spin(7), first on the domain" want_dedup d1;
  checks "x264 nolib+spin(7) on dedup's workspace" want_x264 x1;
  checkb "the 128-thread stream" true (syn = want_syn);
  checks "a crashed seed" want_crashed cr;
  checkb "compare_on_trace's engines" true (cmp = want_compared);
  checks "dedup after all of them" want_dedup d2;
  checks "x264 after all of them" want_x264 x2;
  checkb "chaos crashed a seed" true
    ((fresh crashed).D.health.D.h_crashed > 0);
  let against_ref name mode options =
    let info, program = parsec name in
    let run engine =
      Test_engine_diff.result_bytes
        (D.run
           ~ctx:(D.ctx ~options:(options (parsec_options info)) ~engine ())
           ~mode (Arde.Input.Program program))
    in
    checks
      (Printf.sprintf "%s under %s: reused = reference" name (C.mode_id mode))
      (run D.ref_engine) (run D.opt_engine)
  in
  against_ref "dedup" (C.Helgrind_spin 7) Fun.id;
  against_ref "x264" (C.Nolib_spin 7) Fun.id;
  against_ref "dedup" C.Helgrind_lib crashing;
  let syn_report, syn_edges, _ = syn in
  checkb "the 128-thread stream = reference" true
    ((syn_report, syn_edges) = synthetic_ref synthetic_128)

(* A resident pool's workers keep their workspaces from run to run: the
   sweep of dedup and x264 under every Table-1 mode, one after another
   on a pool of four, gives the bytes [jobs = 1] gives. *)
let test_pool_reuse () =
  let pool = Arde.Domain_pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Arde.Domain_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun name ->
          List.iter
            (fun mode ->
              let seeds o = O.with_seeds [ 1; 2; 3; 4 ] o in
              checks
                (Printf.sprintf "%s under %s: jobs=1 = a resident pool of 4"
                   name (C.mode_id mode))
                (result_bytes (parsec_run ~options:seeds name mode ()))
                (result_bytes (parsec_run ~pool ~options:seeds name mode ())))
            C.all_table1_modes)
        [ "dedup"; "x264" ])

(* -- bounded retention ---------------------------------------------- *)

let loc_at i = { Arde.Types.lfunc = "f"; lblk = "b"; lidx = i }

let write_at tid idx =
  Ev.Write
    { tid; base = "x"; base_id = 0; idx; value = 1; loc = loc_at tid;
      kind = Ev.Plain }

let small =
  [ Ev.Thread_start { tid = 0 }; write_at 0 0; Ev.Thread_start { tid = 1 };
    write_at 1 0 ]

let detect_list events =
  let e = E.create (C.make C.Helgrind_lib) ~instrument:None in
  List.iter (E.observer e) events;
  let words = E.memory_words e in
  E.finish e;
  (J.to_string (Arde.Report.to_json (E.report e)), words)

(* A workspace a seed grew past [E.retention_cap] slots is dropped when
   the seed finishes: one write at index [retention_cap] gives its base
   a row that long.  A seed of ordinary size is kept again afterwards,
   and detects as on a fresh domain. *)
let test_bounded_retention () =
  let want = on_fresh_domain (fun () -> detect_list small) in
  let retained, after_big, again, result =
    on_fresh_domain (fun () ->
        ignore (detect_list small);
        let retained = E.retained () in
        ignore
          (detect_list [ Ev.Thread_start { tid = 1 }; write_at 1 E.retention_cap ]);
        let after_big = E.retained () in
        let result = detect_list small in
        (retained, after_big, E.retained (), result))
  in
  checkb "an ordinary seed's workspace is kept" true
    (retained > 0 && retained <= E.retention_cap);
  Alcotest.(check int) "an oversized workspace is dropped" 0 after_big;
  checkb "the next seed's workspace is kept again" true
    (again > 0 && again <= E.retention_cap);
  checkb "and detects as on a fresh domain" true (result = want);
  checkb "the small seed races" true (fst want <> fst (detect_list []))

(* -- the text index --------------------------------------------------- *)

(* A text digested once is found again by its bytes: the digest comes
   back as the very string computed on the miss, equal to MD5 of the
   text, until [clear] empties the index. *)
let test_text_index () =
  let module A = Arde.Analysis_cache in
  let text = String.concat "" [ "program "; string_of_int (Random.bits ()) ] in
  let first = A.text_digest text in
  checks "the MD5 of the text" (Digest.string text) first;
  checkb "a hit returns the digest computed on the miss" true
    (A.text_digest (String.init (String.length text) (String.get text)) == first);
  A.clear ();
  checkb "clear empties the index" false (A.text_digest text == first)

let suite =
  [
    Alcotest.test_case "a text's digest is computed once" `Quick test_text_index;
    Alcotest.test_case "memory_words of the PARSEC seeds is pinned" `Slow
      test_memory_words_pin;
    Alcotest.test_case "a warm engine stays within its allocation budget"
      `Slow test_allocation_budget;
    Alcotest.test_case "a reused engine workspace detects as a fresh one"
      `Slow test_workspace_reuse;
    Alcotest.test_case "a resident pool's workspaces detect as jobs=1" `Slow
      test_pool_reuse;
    Alcotest.test_case "an oversized engine workspace is not retained" `Quick
      test_bounded_retention;
  ]
