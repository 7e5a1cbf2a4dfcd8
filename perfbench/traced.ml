(* The per-layer traced run.  Every op of one round is rebuilt from the
   layers' public calls, with wall time and [Gc.minor_words] taken
   around each call (one domain, so allocation counts are exact).  The
   rebuilt result must serialize to the same bytes as [Driver.run] of
   the same op, and each seed's report to the same bytes as a one-seed
   [Driver.run]; otherwise the trace would be timing a different
   program.  The same ops then cross the real daemon, and the same
   request payloads run through the worker's path in-process. *)

open Common
module M = Arde.Machine
module Codec = Arde.Trace_codec
module Report = Arde.Report
module Driver = Arde.Driver
module Config = Arde.Config
module Options = Arde.Options
module Sp = Arde.Sp_predict
module P = Arde_server.Protocol
module J = Arde.Json

(* Totals over the round, by key. *)
let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let add k v = Hashtbl.replace totals k (v +. Option.value ~default:0. (Hashtbl.find_opt totals k))
let addi k n = add k (float_of_int n)
let get k = Option.value ~default:0. (Hashtbl.find_opt totals k)

let timed k f =
  let r, ms = time_ms f in
  add k ms;
  r

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let codec_outcome = function
  | M.Finished -> Codec.Finished
  | M.Deadlock tids -> Codec.Deadlock tids
  | M.Fuel_exhausted -> Codec.Fuel_exhausted
  | M.Livelock sites ->
      Codec.Livelock
        (List.map
           (fun (s : M.spin_site) ->
             { Codec.w_tid = s.M.sp_tid; w_loop = s.sp_loop; w_loc = s.sp_loc;
               w_bases = s.sp_bases })
           sites)
  | M.Fault { ftid; floc; msg } -> Codec.Fault { ftid; floc; msg }

(* Mutexes a [cond_wait] names — the condition-variable scan the
   prepare stage runs (not a public call of its own). *)
let cv_mutexes (p : Arde.Types.program) =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (f : Arde.Types.func) ->
         List.concat_map
           (fun (b : Arde.Types.block) ->
             List.filter_map
               (function
                 | Arde.Types.Cond_wait (_, m) -> Some m.Arde.Types.base
                 | _ -> None)
               b.Arde.Types.ins)
           f.Arde.Types.blocks)
       p.Arde.Types.funcs)

let race_of_predicted (p : Sp.race) =
  { Report.r_base = p.Sp.p_base; r_idx = p.p_idx;
    r_first_tid = p.p_first_tid; r_first_loc = p.p_first_loc;
    r_first_write = p.p_first_write; r_second_tid = p.p_second_tid;
    r_second_loc = p.p_second_loc; r_second_write = p.p_second_write;
    r_predicted = true }

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

(* The one-shot pipeline of [op], stage by stage.  [missed]: whether
   the untraced run of the op missed the prepared cache, which decides
   the digests it paid.  Returns the result bytes and each executed
   seed's report. *)
let rebuild ~missed (op : op) =
  let o = op.options and mode = op.mode in
  let w0 = Gc.minor_words () in
  let program =
    timed "parse" (fun () ->
        let p =
          ok_or "parse"
            (Result.map_error Arde.Parse.error_to_string
               (Arde.Parse.program op.text))
        in
        match Arde.Validate.check p with
        | Ok () -> p
        | Error _ -> failwith "validate")
  in
  let analyzed =
    if Config.needs_lowering mode then
      timed "lower" (fun () -> Arde.Lower.lower ~style:o.Options.lower_style program)
    else program
  in
  add "tir_words" (Gc.minor_words () -. w0);
  let instrument =
    Option.map
      (fun k ->
        timed "instrument" (fun () ->
            Arde.Instrument.analyze ~count_callees:o.Options.count_callee_blocks
              ~k analyzed))
      (Config.spin_k mode)
  in
  let n_spins =
    match instrument with
    | Some i -> List.length (Arde.Instrument.spins i)
    | None -> 0
  in
  addi "spin_loops" n_spins;
  (* Table-1 modes do not infer locks; the call is timed on every op's
     analyzed program so the layer has a number, off the blocking path. *)
  let locks = timed "lock_infer" (fun () -> Arde.Lock_infer.analyze analyzed) in
  let inferred_locks =
    if Config.infer_locks mode then Arde.Lock_infer.inferred_locks locks else []
  in
  let cv_mutexes = cv_mutexes analyzed in
  let compiled = timed "compile" (fun () -> M.compile analyzed) in
  Option.iter
    (fun inst ->
      timed "spin_cache" (fun () -> ignore (M.export_spin_cache compiled inst)))
    instrument;
  ignore
    (timed "prepare" (fun () ->
         Arde.Analysis_cache.prepare ~style:o.Options.lower_style
           ~count_callees:o.Options.count_callee_blocks mode program));
  (* The cache keys are canonical digests, each a full pretty-print: one
     for the prepare key, plus one per inner memo table on a miss. *)
  let digest p =
    ignore (timed "digest" (fun () -> Arde.Analysis_cache.digest_of_program p))
  in
  digest program;
  if missed then begin
    if Config.needs_lowering mode then digest program;
    if instrument <> None then digest analyzed
  end;
  let predicting = o.Options.analysis = Options.Predict in
  let seeds =
    if predicting then take Driver.predict_limit o.Options.seeds
    else o.Options.seeds
  in
  let mcfg seed observer =
    { M.policy = o.Options.policy; seed; fuel = o.Options.fuel; instrument;
      spurious_wakeups = o.Options.spurious_wakeups; observer }
  in
  let executed =
    List.map
      (fun seed ->
        let w0 = Gc.minor_words () in
        let quiet = timed "exec" (fun () -> M.run (mcfg seed Arde.Observer.none) compiled) in
        add "exec_words" (Gc.minor_words () -. w0);
        addi "steps" quiet.M.steps;
        let sink = Codec.sink () in
        let res =
          timed "record" (fun () ->
              M.run (mcfg seed (Codec.sink_observer sink)) compiled)
        in
        let section =
          Codec.section_of_sink sink ~seed
            { Codec.t_outcome = codec_outcome res.M.outcome;
              t_steps = res.M.steps; t_check_failures = res.M.check_failures }
        in
        addi "trace_bytes" (String.length section.Codec.s_events);
        addi "trace_events" section.Codec.s_n_events;
        (seed, res, section))
      seeds
  in
  let header =
    { Codec.h_digest = Digest.to_hex (Digest.string op.text);
      h_mode = Config.mode_id mode; h_options = ""; h_source = op.name;
      h_program = op.text }
  in
  let trace =
    Codec.assemble header (List.map (fun (_, _, s) -> s) executed)
  in
  let events =
    timed "decode" (fun () ->
        let _, sections =
          ok_or "trace"
            (Result.map_error Codec.error_to_string (Codec.read_sections trace))
        in
        List.map
          (fun sec ->
            let buf = ref [] in
            ok_or "decode"
              (Result.map_error Codec.error_to_string
                 (Codec.decode_events sec (fun ev -> buf := ev :: !buf)));
            Array.of_list (List.rev !buf))
          sections)
  in
  let cfg = Config.make ~sensitivity:o.Options.sensitivity ~cap:o.Options.cap mode in
  let per_seed =
    List.map2
      (fun (seed, (res : M.result), _) evs ->
        let rep, spin_edges, memory_words =
          timed "engine" (fun () ->
              let e =
                Arde.Engine.create ~cv_mutexes ~inferred_locks cfg ~instrument
              in
              Array.iter (Arde.Engine.observer e) evs;
              let rep = Arde.Engine.report e in
              (rep, Arde.Engine.n_spin_edges e, Arde.Engine.memory_words e))
        in
        addi "events" (Array.length evs);
        addi "spin_edges" spin_edges;
        addi "memory_words" memory_words;
        addi "seed_runs" 1;
        let cv = Arde.Cv_checker.create () in
        Array.iter (Arde.Cv_checker.observer cv) evs;
        ( { Driver.sr_seed = seed; sr_outcome = Driver.Completed res.M.outcome;
            sr_steps = res.M.steps; sr_contexts = Report.n_contexts rep;
            sr_capped = Report.capped rep; sr_spin_edges = spin_edges;
            sr_memory_words = memory_words;
            sr_check_failures = res.M.check_failures;
            sr_cv_diagnostics = Arde.Cv_checker.finalize cv },
          rep ))
      executed events
  in
  let merged =
    timed "merge" (fun () ->
        let m = Report.create ~cap:max_int () in
        List.iter (fun (_, r) -> Report.merge_into m r) per_seed;
        m)
  in
  (* SpPredict over the first two recordings, as a Predict analysis
     consumes them; merged into the result only when the op predicts. *)
  let suppress =
    match instrument with
    | Some i -> Arde.Instrument.is_sync_base i
    | None -> fun _ -> false
  in
  let config = { Sp.default_config with Sp.suppress } in
  let predicted =
    List.map
      (fun evs ->
        ignore (timed "index" (fun () -> Arde.Sp_trace.build evs));
        let races, st = timed "predict" (fun () -> Sp.predict ~config evs) in
        addi "candidates" st.Sp.s_candidates;
        addi "closure_runs" st.s_closure_runs;
        addi "closure_steps" st.s_closure_steps;
        addi "budget_hits" st.s_budget_hits;
        addi "predicted" st.s_predicted;
        (races, st))
      (take Driver.predict_limit events)
  in
  let prediction =
    if not predicting then None
    else begin
      let before = Report.n_contexts merged in
      timed "merge" (fun () ->
          List.iter
            (fun (races, _) ->
              List.iter (fun r -> Report.add merged (race_of_predicted r)) races)
            predicted);
      let sum f = List.fold_left (fun acc (_, st) -> acc + f st) 0 predicted in
      Some
        { Driver.pr_sections = List.length predicted;
          pr_events = sum (fun st -> st.Sp.s_events);
          pr_candidates = sum (fun st -> st.Sp.s_candidates);
          pr_predicted = sum (fun st -> st.Sp.s_predicted);
          pr_new_contexts = Report.n_contexts merged - before;
          pr_closure_steps = sum (fun st -> st.Sp.s_closure_steps);
          pr_budget_hits = sum (fun st -> st.Sp.s_budget_hits);
          pr_notes = [] }
    end
  in
  let runs = List.map fst per_seed in
  let result =
    { Driver.mode; merged; runs; n_spin_loops = n_spins;
      static_cv_hazards = Arde.Cv_checker.static_check analyzed;
      health = Driver.health_of runs; prediction }
  in
  let bytes = timed "encode" (fun () -> result_string result) in
  (bytes, List.map2 (fun s (_, r) -> (s, r)) seeds per_seed)

(* The stages [Driver.run] itself executed for one op, from the cache
   counters of that run: on a prepared miss the digests, compilation,
   the spin cache, and lowering and instrumentation only where their own
   memo tables missed too (on [serve] they hit: those tables are
   unbounded). *)
let on_path_stages (paid : Arde.Analysis_cache.stats) ~predicting =
  let missed = paid.Arde.Analysis_cache.prepare_misses > 0 in
  [ "parse"; "engine"; "merge" ]
  @ (if not missed then [ "prepare" ] (* a hit is one digest plus a lookup *)
     else
       [ "digest"; "compile"; "spin_cache" ]
       @ (if paid.lower_misses > 0 then [ "lower" ] else [])
       @ if paid.instrument_misses > 0 then [ "instrument" ] else [])
  @
  (* a Predict run prepares twice: [predict_into] re-reads the
     instrumentation through a second (hit) prepare *)
  if predicting then [ "record"; "decode"; "predict"; "prepare" ] else [ "exec" ]

let report_bytes r =
  let m = Report.create ~cap:max_int () in
  Report.merge_into m r;
  J.to_string (Report.to_json m)

let driver_run ?options (op : op) =
  let options = Option.value options ~default:op.options in
  Driver.run ~ctx:(Driver.ctx ~options ()) ~mode:op.mode (Arde.Input.Text op.text)

(* Layer rebuild of one op: [Driver.run]'s result bytes, and whether
   the output check and every identity check held. *)
let trace_op ~cold ~check (op : op) =
  if cold then Arde.Analysis_cache.clear ();
  let before = Arde.Analysis_cache.stats () in
  let r, run_ms = time_ms (fun () -> driver_run op) in
  let paid =
    Arde.Analysis_cache.stats_delta ~before ~after:(Arde.Analysis_cache.stats ())
  in
  add "run" run_ms;
  addi "prepare_hits" paid.Arde.Analysis_cache.prepare_hits;
  addi "prepare_misses" paid.prepare_misses;
  let want = result_string r in
  let checked = check op r in
  if cold then Arde.Analysis_cache.clear ();
  let snapshot keys = List.map get keys in
  let stage_keys =
    [ "parse"; "digest"; "lower"; "instrument"; "compile"; "spin_cache"; "prepare";
      "exec"; "record"; "decode"; "engine"; "merge"; "predict" ]
  in
  let before = snapshot stage_keys in
  let (bytes, seed_reports), traced_ms =
    time_ms (fun () -> rebuild ~missed:(paid.prepare_misses > 0) op)
  in
  add "traced" traced_ms;
  let spent = List.map2 (fun k b -> (k, get k -. b)) stage_keys before in
  let predicting = op.options.Options.analysis = Options.Predict in
  List.iter
    (fun k -> add "on_path" (List.assoc k spent))
    (on_path_stages paid ~predicting);
  let same_result = bytes = want in
  if not same_result then fail "%s: rebuilt result differs from Driver.run" op.name;
  let same_seeds =
    List.for_all
      (fun (seed, rep) ->
        let one =
          driver_run
            ~options:
              (op.options |> Options.with_seeds [ seed ]
              |> Options.with_analysis Options.Sweep)
            op
        in
        let same = report_bytes rep = J.to_string (Report.to_json one.Driver.merged) in
        if not same then fail "%s: seed %d report differs from Driver.run" op.name seed;
        same)
      seed_reports
  in
  (want, checked && same_result && same_seeds)

(* The same ops through the real daemon (two closed-loop connections,
   queue depth sampled meanwhile), and their payloads through the
   worker's path in-process.  [warm] first sends one untimed round so
   the daemon's caches match the workload's steady state. *)
let trace_server ~warm (ops : op array) (want : string array) =
  let d = Serve_load.start () in
  let conns = [ Serve_load.connect d; Serve_load.connect d ] in
  let failed = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter Arde_server.Client.close conns;
      let worker = Serve_load.worker_pid d in
      if not (Serve_load.stop ?worker d) then incr failed)
    (fun () ->
      if warm then ignore (Serve_load.round conns ops);
      let depths = ref [] in
      let poll () =
        Option.iter (fun q -> depths := float_of_int q :: !depths)
          (Serve_load.queue_depth d)
      in
      let replies, _ = Serve_load.round ~poll conns ops in
      add "queue_depth"
        (List.fold_left ( +. ) 0. !depths /. Float.max 1. (float_of_int (List.length !depths)));
      Array.iteri
        (fun i (reply : Serve_load.reply) ->
          let op = ops.(i) in
          add "roundtrip" reply.Serve_load.r_ms;
          (match Serve_load.result_of reply with
          | Ok r when J.to_string r = want.(i) -> ()
          | Ok _ ->
              fail "%s: served result differs from Driver.run" op.name;
              incr failed
          | Error e ->
              fail "%s: %s" op.name e;
              incr failed);
          match reply.Serve_load.r_response with
          | Error _ -> ()
          | Ok resp ->
              let s = J.to_string resp in
              addi "response_bytes" (String.length s);
              ignore (timed "response_parse" (fun () -> J.parse s));
              Option.iter (addi "served_prepare_hits")
                (Option.bind
                   (Serve_load.path [ "analysis_cache"; "prepare_hits" ] resp)
                   J.to_int))
        replies;
      Array.iteri
        (fun i (op : op) ->
          let req =
            timed "request_encode" (fun () ->
                J.to_string
                  (P.run_request_json ~id:(J.Int i) ~program:op.text ~mode:op.mode
                     ~options:op.options ()))
          in
          addi "request_bytes" (String.length req);
          if not warm then Arde.Analysis_cache.clear ();
          let payload =
            timed "worker" (fun () ->
                match P.parse_request req with
                | Ok (P.Run { P.rq_id; rq_payload = P.Rq_program rp; _ }) ->
                    let program =
                      ok_or "parse"
                        (Result.map_error Arde.Parse.error_to_string
                           (Arde.Parse.program rp.P.rp_program))
                    in
                    let before = Arde.Analysis_cache.stats () in
                    let r =
                      Arde.detect
                        ~ctx:(Driver.ctx ~options:rp.P.rp_options ())
                        ~mode:rp.P.rp_mode (Arde.Input.Program program)
                    in
                    let delta =
                      Arde.Analysis_cache.stats_delta ~before
                        ~after:(Arde.Analysis_cache.stats ())
                    in
                    P.encode_response ~wire:P.Json
                      (P.ok_response ~id:rq_id
                         [ ("result", Driver.result_to_json r);
                           ("analysis_cache", Arde.Analysis_cache.stats_to_json delta) ])
                | _ -> failwith "request did not parse back")
          in
          match Option.bind (Result.to_option (J.parse payload)) (J.member "result") with
          | Some r when J.to_string r = want.(i) -> ()
          | _ ->
              fail "%s: in-process worker result differs" op.name;
              incr failed)
        ops);
  !failed

let metrics ~ops =
  let n = float_of_int (max 1 ops) in
  let per_op k = get k /. n in
  let ratio a b = if get b > 0. then get a /. get b else 0. in
  let ms k = (per_op k, "ms") and count k = (get k, "count") in
  [
    ("tir.parse_ms", ms "parse");
    ("tir.lower_ms", ms "lower");
    ("tir.alloc_mwords", (per_op "tir_words" /. 1e6, "Mwords"));
    ("cfg.instrument_ms", ms "instrument");
    ("cfg.lock_infer_ms", ms "lock_infer");
    ("cfg.spin_loops", count "spin_loops");
    ("runtime.compile_ms", ms "compile");
    ("runtime.spin_cache_ms", ms "spin_cache");
    ("runtime.exec_ms", ms "exec");
    ("runtime.steps", count "steps");
    ("runtime.steps_per_s", (1000. *. ratio "steps" "exec", "1/s"));
    ("runtime.alloc_words_per_step", (ratio "exec_words" "steps", "words"));
    ("runtime.record_ms", ms "record");
    ("runtime.trace_bytes_per_event", (ratio "trace_bytes" "trace_events", "B"));
    ("runtime.decode_ms", ms "decode");
    ("detect.prepare_ms", ms "prepare");
    ("detect.digest_ms", ms "digest");
    ( "detect.prepare_hit_ratio",
      (get "prepare_hits" /. Float.max 1. (get "prepare_hits" +. get "prepare_misses"), "ratio") );
    ("detect.engine_ms", ms "engine");
    ("detect.events", count "events");
    ("detect.events_per_s", (1000. *. ratio "events" "engine", "1/s"));
    ("detect.engine_memory_words", (ratio "memory_words" "seed_runs", "words"));
    ("detect.spin_edges", count "spin_edges");
    ("detect.merge_ms", ms "merge");
    ("detect.encode_ms", ms "encode");
    ("detect.run_ms", ms "run");
    ("detect.stage_coverage", (ratio "on_path" "run", "ratio"));
    ("trace.overhead", (ratio "traced" "run", "ratio"));
    ("predict.index_ms", ms "index");
    ("predict.predict_ms", ms "predict");
    ("predict.candidates", count "candidates");
    ("predict.closure_runs", count "closure_runs");
    ("predict.closure_steps", count "closure_steps");
    ("predict.budget_hits", count "budget_hits");
    ("predict.predicted", count "predicted");
    ("predict.yield", (ratio "predicted" "closure_runs", "ratio"));
    ("server.request_encode_ms", ms "request_encode");
    ("server.roundtrip_ms", ms "roundtrip");
    ("server.response_parse_ms", ms "response_parse");
    ("server.request_bytes", (per_op "request_bytes", "B"));
    ("server.response_bytes", (per_op "response_bytes", "B"));
    ("server.queue_depth", (get "queue_depth", "count"));
    ("server.prepare_hits", count "served_prepare_hits");
    ("server.worker_ms", ms "worker");
    ("server.hop_ms", ((get "roundtrip" -. get "worker") /. n, "ms"));
  ]

(* One traced round of [ops] (already in round order). *)
let run ~cold ~check (ops : op list) =
  let ops = Array.of_list ops in
  let failed = ref 0 in
  let want =
    Array.map
      (fun op ->
        let want, ok =
          try trace_op ~cold ~check op
          with e ->
            fail "%s: %s" op.name (Printexc.to_string e);
            ("", false)
        in
        if not ok then incr failed;
        want)
      ops
  in
  let server_failed = trace_server ~warm:(not cold) ops want in
  let ms = metrics ~ops:(Array.length ops) in
  (Array.length ops, !failed + server_failed, List.map (fun (k, (v, u)) -> (k, v, u)) ms)
