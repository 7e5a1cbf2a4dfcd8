open Arde_tir.Types
module Machine = Arde_runtime.Machine
module Sched = Arde_runtime.Sched
module Observer = Arde_runtime.Observer
module Codec = Arde_runtime.Trace_codec

type options = Options.t

(* ------------------------------------------------------------------ *)
(* Engine selection                                                   *)

(* The per-seed detector behind a closure record, so the pipeline can run
   with either the optimized {!Engine} (default) or the frozen
   {!Engine_ref} oracle — the differential suite drives the FULL pipeline
   (chaos injection included) through both and asserts byte-identical
   results. *)
type engine = {
  e_observer : Observer.t;
  e_report : unit -> Report.t;
  e_spin_edges : unit -> int;
  e_memory_words : unit -> int;
  e_finish : unit -> unit;  (* after the reads above *)
}

type engine_factory =
  Config.t ->
  cv_mutexes:string list ->
  inferred_locks:string list ->
  instrument:Arde_cfg.Instrument.t option ->
  engine

let opt_engine : engine_factory =
 fun cfg ~cv_mutexes ~inferred_locks ~instrument ->
  let e = Engine.create ~cv_mutexes ~inferred_locks cfg ~instrument in
  {
    e_observer = Engine.observer e;
    e_report = (fun () -> Engine.report e);
    e_spin_edges = (fun () -> Engine.n_spin_edges e);
    e_memory_words = (fun () -> Engine.memory_words e);
    e_finish = (fun () -> Engine.finish e);
  }

let ref_engine : engine_factory =
 fun cfg ~cv_mutexes ~inferred_locks ~instrument ->
  let e = Engine_ref.create ~cv_mutexes ~inferred_locks cfg ~instrument in
  {
    e_observer = Engine_ref.observer e;
    e_report = (fun () -> Engine_ref.report e);
    e_spin_edges = (fun () -> Engine_ref.n_spin_edges e);
    e_memory_words = (fun () -> Engine_ref.memory_words e);
    e_finish = ignore;
  }

(* ------------------------------------------------------------------ *)
(* Run context                                                        *)

type ctx = {
  c_options : Options.t;
  c_engine : engine_factory;
  c_pool : Arde_util.Domain_pool.pool option;
  c_should_stop : unit -> bool;
  c_program_digest : string option;
}

let never_stop () = false

let ctx ?(options = Options.default) ?(engine = opt_engine) ?pool
    ?(should_stop = never_stop) ?program_digest () =
  {
    c_options = options;
    c_engine = engine;
    c_pool = pool;
    c_should_stop = should_stop;
    c_program_digest = program_digest;
  }

let default_ctx = ctx ()
let default_mode = Config.Helgrind_spin 7

type seed_outcome =
  | Completed of Machine.outcome
  | Crashed of loc option * string
  | Cancelled

type seed_run = {
  sr_seed : int;
  sr_outcome : seed_outcome;
  sr_steps : int;
  sr_contexts : int;
  sr_capped : bool;
  sr_spin_edges : int;
  sr_memory_words : int;
  sr_check_failures : (loc * string) list;
  sr_cv_diagnostics : Cv_checker.diagnostic list;
}

type health_verdict = Healthy | Degraded | Failed

type health = {
  h_seeds : int;
  h_finished : int;
  h_deadlocked : int;
  h_livelocked : int;
  h_fuel_exhausted : int;
  h_faulted : int;
  h_crashed : int;
  h_cancelled : int;
  h_verdict : health_verdict;
  h_notes : string list;
}

type prediction = {
  pr_sections : int;
  pr_events : int;
  pr_candidates : int;
  pr_predicted : int;
  pr_new_contexts : int;
  pr_closure_steps : int;
  pr_budget_hits : int;
  pr_notes : string list;
}

type result = {
  mode : Config.mode;
  merged : Report.t;
  runs : seed_run list;
  n_spin_loops : int;
  static_cv_hazards : Cv_checker.diagnostic list;
      (* spurious-wakeup-unsafe waits, found statically *)
  health : health;
  prediction : prediction option;
      (* present when the run's analysis predicted from recordings *)
}

(* ------------------------------------------------------------------ *)
(* Run health                                                         *)

let health_of ?(notes = []) runs =
  let finished = ref 0
  and deadlocked = ref 0
  and livelocked = ref 0
  and fuel = ref 0
  and faulted = ref 0
  and crashed = ref 0
  and cancelled = ref 0
  and notes = ref (List.rev notes) in
  List.iter
    (fun sr ->
      match sr.sr_outcome with
      | Completed Machine.Finished -> incr finished
      | Completed (Machine.Deadlock _) -> incr deadlocked
      | Completed (Machine.Livelock _) -> incr livelocked
      | Completed Machine.Fuel_exhausted -> incr fuel
      | Completed (Machine.Fault _) -> incr faulted
      | Crashed (_, msg) ->
          incr crashed;
          notes := Printf.sprintf "seed %d crashed: %s" sr.sr_seed msg :: !notes
      | Cancelled -> incr cancelled)
    runs;
  let n = List.length runs in
  let verdict =
    (* cancellation is voluntary (a deadline or drain), so it degrades
       the run rather than failing it — the completed seeds' findings
       are still real *)
    if n = 0 || !crashed = n then Failed
    else if !finished = n then Healthy
    else Degraded
  in
  {
    h_seeds = n;
    h_finished = !finished;
    h_deadlocked = !deadlocked;
    h_livelocked = !livelocked;
    h_fuel_exhausted = !fuel;
    h_faulted = !faulted;
    h_crashed = !crashed;
    h_cancelled = !cancelled;
    h_verdict = verdict;
    h_notes = List.rev !notes;
  }

let failed_result mode msg =
  {
    mode;
    merged = Report.create ~cap:max_int ();
    runs = [];
    n_spin_loops = 0;
    static_cv_hazards = [];
    health = health_of ~notes:[ "pipeline: " ^ msg ] [];
    prediction = None;
  }

let describe_exn = function
  | Machine.Fault_exn (l, msg) -> (Some l, msg)
  | Machine.Internal_violation msg -> (None, msg)
  | Invalid_argument msg | Failure msg -> (None, msg)
  | e -> (None, Printexc.to_string e)

(* Everything that happens before the per-seed fan-out: lowering, the
   instrumentation phase, lock inference, the static hazard scan,
   compilation.  The whole bundle goes through {!Analysis_cache.prepare},
   so a harness that runs the same program many times (suite, chaos
   storm, bench sweep, a serve daemon's repeat submissions) pays for the
   static analysis once and a warm run skips straight to per-seed
   execution.  A crash here means no seed can run at all — the caller
   turns it into a [Failed] health record rather than letting the
   exception escape [Arde.detect]. *)
let prepare ?digest (options : Options.t) mode program =
  Analysis_cache.prepare ?digest ~style:options.Options.lower_style
    ~count_callees:options.Options.count_callee_blocks mode program

let prepare_valid ?digest (options : Options.t) mode valid =
  Analysis_cache.prepare_valid ?digest ~style:options.Options.lower_style
    ~count_callees:options.Options.count_callee_blocks mode valid

(* One seed's detector: a fresh engine and condition-variable checker
   over the prepared bundle, teed into the observer the stream feeds. *)
let seed_detector (options : Options.t) mode ~engine_factory
    (p : Analysis_cache.prepared) =
  let detector_cfg =
    Config.make ~sensitivity:options.Options.sensitivity
      ~cap:options.Options.cap mode
  in
  let engine =
    engine_factory detector_cfg ~cv_mutexes:p.Analysis_cache.p_cv_mutexes
      ~inferred_locks:p.Analysis_cache.p_inferred_locks
      ~instrument:p.Analysis_cache.p_instrument
  in
  let cv_checker = Cv_checker.create () in
  ( engine,
    cv_checker,
    Observer.tee engine.e_observer (Cv_checker.observer cv_checker) )

(* A seed's record from what its engine and checker hold.  Every read is
   guarded: after a crash, the warnings found on the trace prefix are
   still valid observations and are salvaged.  A finished seed's engine
   then hands its workspace back to the domain; a crashed one's may be
   mid-event, so it is dropped with the engine. *)
let seed_record ~seed engine cv_checker outcome ~steps ~check_failures =
  let rep = try Some (engine.e_report ()) with _ -> None in
  let record =
    {
      sr_seed = seed;
      sr_outcome = outcome;
      sr_steps = steps;
      sr_contexts = (match rep with Some r -> Report.n_contexts r | None -> 0);
      sr_capped = (match rep with Some r -> Report.capped r | None -> false);
      sr_spin_edges = (try engine.e_spin_edges () with _ -> 0);
      sr_memory_words = (try engine.e_memory_words () with _ -> 0);
      sr_check_failures = check_failures;
      sr_cv_diagnostics = (try Cv_checker.finalize cv_checker with _ -> []);
    }
  in
  (match outcome with
  | Crashed _ -> ()
  | Completed _ | Cancelled -> ( try engine.e_finish () with _ -> ()));
  (record, rep)

(* The pure per-seed stage.  Runs one seed inside a sandbox and returns
   the seed's record together with its private report — no shared state
   is touched, which is what lets the driver run seeds on separate
   domains.  Machine faults surface as [Completed (Fault _)] (the machine
   catches those itself), while escaping exceptions — broken machine
   invariants, an observer blowing up, injected chaos — become a
   [Crashed] outcome carrying whatever partial report the engine had
   accumulated.  One sick seed never takes down the others.

   A [tap] (a codec sink recording the seed, or the streaming predictor)
   sits {e between} the chaos injector and the engine:
   the tapped stream is exactly the stream the engine saw (an injector
   raising mid-run truncates both identically), which is what makes
   replay reproduce even crashed seeds byte for byte. *)
let run_seed (options : Options.t) mode ~engine_factory ?(tap = Observer.none)
    (p : Analysis_cache.prepared) seed =
  let engine, cv_checker, observer =
    seed_detector options mode ~engine_factory p
  in
  let observer = Observer.tee tap observer in
  let observer =
    match options.Options.inject with
    | None -> observer
    | Some f -> Observer.tee (Observer.of_fn (f ~seed)) observer
  in
  let mcfg =
    {
      Machine.policy = options.Options.policy;
      seed;
      fuel = options.Options.fuel;
      instrument = p.Analysis_cache.p_instrument;
      spurious_wakeups = options.Options.spurious_wakeups;
      observer;
    }
  in
  match Machine.run mcfg p.Analysis_cache.p_compiled with
  | res ->
      seed_record ~seed engine cv_checker (Completed res.Machine.outcome)
        ~steps:res.Machine.steps ~check_failures:res.Machine.check_failures
  | exception e ->
      let floc, msg = describe_exn e in
      seed_record ~seed engine cv_checker (Crashed (floc, msg)) ~steps:0
        ~check_failures:[]

(* A seed the run never started: the cancellation hook (a server
   deadline, a drain) fired before this seed's slot came up.  No machine
   ran and no engine was built, so every counter is zero and there is no
   partial report to salvage — unlike [Crashed], nothing went wrong. *)
let cancelled_run seed =
  ( {
      sr_seed = seed;
      sr_outcome = Cancelled;
      sr_steps = 0;
      sr_contexts = 0;
      sr_capped = false;
      sr_spin_edges = 0;
      sr_memory_words = 0;
      sr_check_failures = [];
      sr_cv_diagnostics = [];
    },
    None )

(* The deterministic merge stage.  Per-seed reports are folded in seed
   order, whatever interleaving the pool produced, so [jobs = 1] and
   [jobs = N] yield byte-identical merged reports: {!Report.merge_into}
   keeps the first representative per context, and "first" is defined by
   this fold. *)
let merge_reports per_seed =
  let merged = Report.create ~cap:max_int () in
  List.iter
    (fun (_, rep) ->
      Option.iter (fun r -> try Report.merge_into merged r with _ -> ()) rep)
    per_seed;
  merged

(* The clamp is recorded in every affected run's health notes, but the
   stderr notice prints once per distinct message per process — a suite
   sweep is hundreds of [run] calls and the spam would drown the table.
   A resident pool ignores [Options.jobs], so a run on one clamps
   nothing: no note, and no entry in the process-wide table. *)
let clamp_announced : (string, unit) Hashtbl.t = Hashtbl.create 1

let announce_clamp note =
  if not (Hashtbl.mem clamp_announced note) then begin
    Hashtbl.replace clamp_announced note ();
    Printf.eprintf "arde: %s\n%!" note
  end

let clamp_notes (c : ctx) options =
  match (c.c_pool, Options.jobs_clamp options) with
  | Some _, _ | None, None -> []
  | None, Some (requested, host) ->
      let note =
        Printf.sprintf "jobs: requested %d clamped to host core count %d"
          requested host
      in
      announce_clamp note;
      [ note ]

(* ------------------------------------------------------------------ *)
(* Trailer mapping: seed outcome ↔ the codec's machine-free mirror     *)

let codec_outcome = function
  | Completed Machine.Finished -> Codec.Finished
  | Completed (Machine.Deadlock tids) -> Codec.Deadlock tids
  | Completed Machine.Fuel_exhausted -> Codec.Fuel_exhausted
  | Completed (Machine.Livelock sites) ->
      Codec.Livelock
        (List.map
           (fun s ->
             {
               Codec.w_tid = s.Machine.sp_tid;
               w_loop = s.Machine.sp_loop;
               w_loc = s.Machine.sp_loc;
               w_bases = s.Machine.sp_bases;
             })
           sites)
  | Completed (Machine.Fault { ftid; floc; msg }) ->
      Codec.Fault { ftid; floc; msg }
  | Crashed (l, msg) -> Codec.Crashed (l, msg)
  | Cancelled -> Codec.Cancelled

let seed_outcome_of_codec = function
  | Codec.Finished -> Completed Machine.Finished
  | Codec.Deadlock tids -> Completed (Machine.Deadlock tids)
  | Codec.Fuel_exhausted -> Completed Machine.Fuel_exhausted
  | Codec.Livelock sites ->
      Completed
        (Machine.Livelock
           (List.map
              (fun w ->
                {
                  Machine.sp_tid = w.Codec.w_tid;
                  sp_loop = w.Codec.w_loop;
                  sp_loc = w.Codec.w_loc;
                  sp_bases = w.Codec.w_bases;
                })
              sites))
  | Codec.Fault { ftid; floc; msg } -> Completed (Machine.Fault { ftid; floc; msg })
  | Codec.Crashed (l, msg) -> Crashed (l, msg)
  | Codec.Cancelled -> Cancelled

let trailer_of_seed_run sr =
  {
    Codec.t_outcome = codec_outcome sr.sr_outcome;
    t_steps = sr.sr_steps;
    t_check_failures = sr.sr_check_failures;
  }

(* ------------------------------------------------------------------ *)
(* The live pipeline, shared by [run] and [record]                    *)

let fan_out (c : ctx) options body seeds =
  match c.c_pool with
  | Some p -> Arde_util.Domain_pool.map_pool p body seeds
  | None ->
      let jobs = Options.effective_jobs options ~n_seeds:(List.length seeds) in
      Arde_util.Domain_pool.map ~jobs body seeds

let finish_result mode (p : Analysis_cache.prepared) ~notes per_seed =
  let merged = merge_reports per_seed in
  let runs = List.map fst per_seed in
  let n_spin_loops =
    match p.Analysis_cache.p_instrument with
    | Some inst -> List.length (Arde_cfg.Instrument.spins inst)
    | None -> 0
  in
  {
    mode;
    merged;
    runs;
    n_spin_loops;
    static_cv_hazards = p.Analysis_cache.p_cv_hazards;
    health = health_of ~notes runs;
    prediction = None;
  }

(* How a seed's event stream is used besides detection: the observer
   {!run_seed} splices in as its tap, and what to make of the stream
   once the seed has run.  [t_finish] runs inside the per-seed body, so
   whatever the tap holds is garbage as soon as its seed is done. *)
type 'a tap = { t_observer : Observer.t; t_finish : seed_run -> 'a }

(* Execute the live pipeline over a prepared bundle.  [tap ~pos seed]
   (the seed's position in the seed list, and the seed) says whether and
   how to tap a seed; a cancelled seed contributes [on_cancel seed]
   instead.  Returns the result and what the taps made, in seed order. *)
let run_live (c : ctx) mode p ~tap ~on_cancel =
  let options = c.c_options in
  let notes = clamp_notes c options in
  (* Cooperative cancellation: the hook is consulted once per seed,
     before that seed's machine is built.  Seeds already executing run
     to completion (their findings are salvaged); seeds whose slot comes
     up after the hook fires become [Cancelled]. *)
  let seed_body (pos, seed) =
    if c.c_should_stop () then (cancelled_run seed, on_cancel seed)
    else
      let run ?tap () =
        run_seed options mode ~engine_factory:c.c_engine ?tap p seed
      in
      match tap ~pos seed with
      | None -> (run (), None)
      | Some t ->
          let ((sr, _) as seed_res) = run ~tap:t.t_observer () in
          (seed_res, Some (t.t_finish sr))
  in
  let out =
    fan_out c options seed_body
      (List.mapi (fun pos seed -> (pos, seed)) options.Options.seeds)
  in
  (finish_result mode p ~notes (List.map fst out), List.filter_map snd out)

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)

(* Parsing only: the prepare that follows validates, as it does for a
   [Program] input, so an invalid program reads the same either way. *)
let parse_text text =
  Result.map_error Arde_tir.Parse.error_to_string (Arde_tir.Parse.program text)

(* ------------------------------------------------------------------ *)
(* Replay: the detection half alone, fed from a recording             *)

let replay_section (options : Options.t) mode ~engine_factory p
    (sec : Codec.section) =
  let trailer = sec.Codec.s_trailer in
  if trailer.Codec.t_outcome = Codec.Cancelled then
    cancelled_run sec.Codec.s_seed
  else
    let engine, cv_checker, observer =
      seed_detector options mode ~engine_factory p
    in
    let finish outcome check_failures steps =
      seed_record ~seed:sec.Codec.s_seed engine cv_checker outcome ~steps
        ~check_failures
    in
    match
      Codec.decode_events ~extent:(Machine.extent p.Analysis_cache.p_compiled)
        sec (fun ev -> Observer.emit observer ev)
    with
    | Ok () ->
        finish
          (seed_outcome_of_codec trailer.Codec.t_outcome)
          trailer.Codec.t_check_failures trailer.Codec.t_steps
    | Error e ->
        (* The recording itself is sick (hash-valid but undecodable, or
           an engine blew up mid-stream): surface it like a crashed seed,
           salvaging whatever the engine got through. *)
        finish (Crashed (None, "replay: " ^ Codec.error_to_string e)) [] 0
    | exception e ->
        let floc, msg = describe_exn e in
        finish (Crashed (floc, msg)) [] 0

(* The replayed result plus the bundle its prepare produced. *)
let replay_with ctx recorded =
  (* Everything that shapes detection comes from the recording — mode,
     sensitivity, cap, seeds — so a replayed result is comparable byte
     for byte with the live run that produced the trace.  The caller's
     [ctx] contributes only execution machinery: engine choice, pool,
     cancellation. *)
  let mode = Recorded.mode recorded in
  let options = Recorded.options recorded in
  (* validated, and its digest verified canonical, at load time *)
  let digest = Digest.from_hex (Recorded.digest_hex recorded) in
  match prepare_valid ~digest options mode (Recorded.program recorded) with
  | exception e -> (failed_result mode (snd (describe_exn e)), None)
  | p ->
      let notes = clamp_notes ctx options in
      let section_body sec =
        if ctx.c_should_stop () then cancelled_run sec.Codec.s_seed
        else replay_section options mode ~engine_factory:ctx.c_engine p sec
      in
      let per_seed =
        fan_out ctx options section_body (Recorded.sections recorded)
      in
      (finish_result mode p ~notes per_seed, Some p)

(* ------------------------------------------------------------------ *)
(* Prediction: sync-preserving races from a seed's event stream       *)

module Sp = Arde_predict.Sp_predict

(* How many executions a [Predict] analysis consumes.  The differential
   gate promises every sweep-found race from at most this many
   recordings, so the number is part of the contract, not a tuning
   knob.  The predicted seeds are those at the first [predict_limit]
   positions of the seed list; a cancelled one among them is skipped,
   not replaced, which is what lets a live seed know from its position
   alone whether to predict. *)
let predict_limit = 2

let take n xs =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n xs

(* The predictor suppresses exactly the spin-condition bases the
   bundle's instrumentation vouches for, as the engine does. *)
let predict_config (p : Analysis_cache.prepared) =
  let suppress =
    match p.Analysis_cache.p_instrument with
    | Some inst -> fun b -> Arde_cfg.Instrument.is_sync_base inst b
    | None -> fun _ -> false
  in
  { Sp.default_config with suppress }

(* One seed's prediction, tagged with the seed.  Never raises: a failure
   (the exception that poisoned the predictor mid-stream, or one from
   its closures) becomes the note that says the seed was skipped. *)
let predict_seed seed sp =
  match Sp.finish sp with
  | v -> (seed, Ok v)
  | exception e -> (seed, Error (snd (describe_exn e)))

(* Predict over the chosen sections of a recording, each decoded
   straight into its own streaming predictor.  An undecodable section
   (a salvaged chaos trace, a truncated stream) is skipped with a note:
   its predictor is dropped unfinished, so prediction only ever reports
   from events that survived the codec's hash check, and a sick
   recording degrades coverage, never correctness. *)
let predict_sections p sections =
  let config = predict_config p in
  let extent = Machine.extent p.Analysis_cache.p_compiled in
  List.map
    (fun (sec : Codec.section) ->
      let seed = sec.Codec.s_seed in
      let sp = Sp.create ~config () in
      match Codec.decode_events ~extent sec (Sp.observe sp) with
      | Ok () -> predict_seed seed sp
      | Error e -> (seed, Error (Codec.error_to_string e))
      | exception e -> (seed, Error (snd (describe_exn e))))
    (List.filter
       (fun (s : Codec.section) ->
         s.Codec.s_trailer.Codec.t_outcome <> Codec.Cancelled)
       (take predict_limit sections))

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

(* Fold the per-seed predictions (in seed order) into [result]: their
   statistics summed, their races added to the merged report {e after}
   every observed one.  {!Report.add} keeps the first representative per
   context, so a context the sweep already saw stays an observed race
   and only genuinely new contexts carry the [predicted] tag.  Seeds are
   visited in seed order and contexts in discovery order, so the merged
   report stays byte-stable.  A run where nothing ran gets no
   prediction. *)
let merge_predictions result per_seed =
  if result.runs = [] then result
  else
    let before = Report.n_contexts result.merged in
    let zero =
      {
        pr_sections = 0;
        pr_events = 0;
        pr_candidates = 0;
        pr_predicted = 0;
        pr_new_contexts = 0;
        pr_closure_steps = 0;
        pr_budget_hits = 0;
        pr_notes = [];
      }
    in
    let p =
      List.fold_left
        (fun acc (seed, outcome) ->
          match outcome with
          | Error msg ->
              let note =
                Printf.sprintf "predict: seed %d skipped: %s" seed msg
              in
              { acc with pr_notes = note :: acc.pr_notes }
          | Ok (races, (st : Sp.stats)) ->
              List.iter
                (fun r -> Report.add result.merged (race_of_predicted r))
                races;
              {
                acc with
                pr_sections = acc.pr_sections + 1;
                pr_events = acc.pr_events + st.Sp.s_events;
                pr_candidates = acc.pr_candidates + st.Sp.s_candidates;
                pr_predicted = acc.pr_predicted + st.Sp.s_predicted;
                pr_closure_steps = acc.pr_closure_steps + st.Sp.s_closure_steps;
                pr_budget_hits = acc.pr_budget_hits + st.Sp.s_budget_hits;
              })
        zero per_seed
    in
    let p =
      {
        p with
        pr_new_contexts = Report.n_contexts result.merged - before;
        pr_notes = List.rev p.pr_notes;
      }
    in
    { result with prediction = Some p }

(* The live prediction tap: each of the first [predict_limit] seeds
   feeds the events its engine sees straight into a streaming predictor
   and finishes it inside its own per-seed body.  No event is buffered
   and no trace is encoded or decoded.  The predictor fails open, so a
   stream it cannot place never reaches the engine behind it. *)
let predict_tap p =
  let config = predict_config p in
  fun ~pos seed ->
    if pos >= predict_limit then None
    else
      let sp = Sp.create ~config () in
      Some
        {
          t_observer = Sp.observe sp;
          t_finish = (fun _ -> predict_seed seed sp);
        }

let no_tap ~pos:_ _ = None
let nothing_on_cancel _ = None

(* The analysis-aware live pipeline over a bundle [prep] yields (it may
   raise: the pipeline then fails): [Sweep] is the classic path,
   [Predict] trims the run to [predict_limit] seeds and predicts from
   their events, [Both] sweeps every seed and predicts from the first
   ones (the differential configuration). *)
let run_live_analyzed (c : ctx) mode prep =
  match prep () with
  | exception e -> failed_result mode (snd (describe_exn e))
  | p -> (
      let predicted c =
        let result, per_seed =
          run_live c mode p ~tap:(predict_tap p) ~on_cancel:nothing_on_cancel
        in
        merge_predictions result per_seed
      in
      match c.c_options.Options.analysis with
      | Options.Sweep ->
          fst (run_live c mode p ~tap:no_tap ~on_cancel:nothing_on_cancel)
      | Options.Predict ->
          let options =
            Options.with_seeds
              (take predict_limit c.c_options.Options.seeds)
              c.c_options
          in
          predicted { c with c_options = options }
      | Options.Both -> predicted c)

(* ------------------------------------------------------------------ *)
(* The front door                                                     *)

let mode_conflict requested recorded_mode =
  Printf.sprintf
    "replay: trace was recorded in mode %s; re-run the program to detect in \
     mode %s"
    (Config.mode_id recorded_mode)
    (Config.mode_id requested)

let run ?(ctx = default_ctx) ?mode input =
  match (input : Input.t) with
  | Input.Recorded_trace r -> (
      match mode with
      | Some m when m <> Recorded.mode r ->
          failed_result m (mode_conflict m (Recorded.mode r))
      | _ -> (
          (* the bundle comes from replay's prepare under the RECORDED
             mode/options: the predictor must suppress exactly the bases
             the recorded run's engine did *)
          let result, p = replay_with ctx r in
          (* Replay itself is pinned to the recording; whether to ALSO
             predict from it is the caller's choice, so the analysis
             knob is read from [ctx], not the recorded options. *)
          match (ctx.c_options.Options.analysis, p) with
          | Options.Sweep, _ | _, None -> result
          | (Options.Predict | Options.Both), Some p ->
              merge_predictions result
                (predict_sections p (Recorded.sections r))))
  | Input.Program program ->
      let mode = Option.value mode ~default:default_mode in
      run_live_analyzed ctx mode (fun () ->
          prepare ?digest:ctx.c_program_digest ctx.c_options mode program)
  | Input.Valid valid ->
      let mode = Option.value mode ~default:default_mode in
      run_live_analyzed ctx mode (fun () ->
          prepare_valid ?digest:ctx.c_program_digest ctx.c_options mode valid)
  | Input.Text text -> (
      let mode = Option.value mode ~default:default_mode in
      (* The text determines the program, so its bytes are a cache key:
         a run that finds its bundle neither parses nor prints the
         program, and only a miss pays for the parse. *)
      let digest =
        match ctx.c_program_digest with
        | Some d -> d
        | None -> Analysis_cache.text_digest text
      in
      let options = ctx.c_options in
      match
        Analysis_cache.find_prepared ~digest
          ~style:options.Options.lower_style
          ~count_callees:options.Options.count_callee_blocks mode
      with
      | Some p -> run_live_analyzed ctx mode (fun () -> p)
      | None -> (
          match parse_text text with
          | Error msg -> failed_result mode msg
          | Ok program ->
              run_live_analyzed ctx mode (fun () ->
                  prepare ~digest options mode program)))

(* ------------------------------------------------------------------ *)
(* Recording                                                          *)

type recording = { rec_trace : string; rec_result : result option }

(* The record-only per-seed body: no engine, no checker — just the chaos
   injector (if any) and the sink, which is as close to the quiet fast
   path as an observing run gets. *)
let record_seed (options : Options.t) (p : Analysis_cache.prepared) seed =
  let sink = Codec.sink () in
  let observer = Codec.sink_observer sink in
  let observer =
    match options.Options.inject with
    | None -> observer
    | Some f -> Observer.tee (Observer.of_fn (f ~seed)) observer
  in
  let mcfg =
    {
      Machine.policy = options.Options.policy;
      seed;
      fuel = options.Options.fuel;
      instrument = p.Analysis_cache.p_instrument;
      spurious_wakeups = options.Options.spurious_wakeups;
      observer;
    }
  in
  let trailer =
    match Machine.run mcfg p.Analysis_cache.p_compiled with
    | res ->
        {
          Codec.t_outcome = codec_outcome (Completed res.Machine.outcome);
          t_steps = res.Machine.steps;
          t_check_failures = res.Machine.check_failures;
        }
    | exception e ->
        let floc, msg = describe_exn e in
        {
          Codec.t_outcome = Codec.Crashed (floc, msg);
          t_steps = 0;
          t_check_failures = [];
        }
  in
  Codec.section_of_sink sink ~seed trailer

(* The recording tap of [record ~detect]: every seed's stream is sealed
   into a codec section, a cancelled seed into an empty one. *)
let record_tap ~pos:_ seed =
  let sink = Codec.sink () in
  Some
    {
      t_observer = Codec.sink_observer sink;
      t_finish =
        (fun sr -> Codec.section_of_sink sink ~seed (trailer_of_seed_run sr));
    }

let record ?(ctx = default_ctx) ?(mode = default_mode) ?(detect = false)
    ?(source = "") input =
  let options = ctx.c_options in
  (* the program, and its prepare under a digest *)
  let resolved =
    match (input : Input.t) with
    | Input.Recorded_trace _ ->
        Error "record: input is already a recording; replay it instead"
    | Input.Program p -> Ok (p, fun digest -> prepare ~digest options mode p)
    | Input.Valid v ->
        Ok ((v :> program), fun digest -> prepare_valid ~digest options mode v)
    | Input.Text text ->
        Result.map
          (fun p -> (p, fun digest -> prepare ~digest options mode p))
          (parse_text text)
  in
  match resolved with
  | Error msg -> Error msg
  | Ok (program, prepare_under) -> (
      (* The header pins the recording to the canonical program text: a
         loader re-derives the digest from the embedded text and refuses
         a mismatch, and replay re-runs the static half from it. *)
      let text = Arde_tir.Pretty.program_to_string program in
      let digest = Digest.string text in
      let header =
        {
          Codec.h_digest = Digest.to_hex digest;
          h_mode = Config.mode_id mode;
          h_options = Arde_util.Json.to_string ~minify:true
              (Options.to_json ctx.c_options);
          h_source = source;
          h_program = text;
        }
      in
      match prepare_under digest with
      | exception e ->
          let msg = snd (describe_exn e) in
          (* with [detect], the failure reads as the failed run's note *)
          Error (if detect then "pipeline: " ^ msg else msg)
      | p ->
          if detect then begin
            let result, sections =
              run_live ctx mode p ~tap:record_tap
                ~on_cancel:(fun seed -> Some (Codec.cancelled_section ~seed))
            in
            if result.runs = [] then
              (* no seed: nothing was recorded *)
              Error
                (match result.health.h_notes with
                | n :: _ -> n
                | [] -> "record: pipeline failed")
            else
              Ok
                {
                  rec_trace = Codec.assemble header sections;
                  rec_result = Some result;
                }
          end
          else begin
            ignore (clamp_notes ctx options);
            let seed_body seed =
              if ctx.c_should_stop () then Codec.cancelled_section ~seed
              else record_seed options p seed
            in
            let sections = fan_out ctx options seed_body options.Options.seeds in
            Ok { rec_trace = Codec.assemble header sections; rec_result = None }
          end)

let mean_contexts r =
  match r.runs with
  | [] -> 0.
  | runs ->
      let total = List.fold_left (fun acc s -> acc + s.sr_contexts) 0 runs in
      float_of_int total /. float_of_int (List.length runs)

let racy_bases r = Report.racy_bases r.merged

let any_bad_outcome r =
  List.find_map
    (fun s ->
      match s.sr_outcome with
      | Completed Machine.Finished -> None
      | o -> Some o)
    r.runs

let pp_seed_outcome ppf = function
  | Completed o -> Machine.pp_outcome ppf o
  | Crashed (Some l, msg) ->
      Format.fprintf ppf "crashed at %a: %s" Arde_tir.Pretty.loc l msg
  | Crashed (None, msg) -> Format.fprintf ppf "crashed: %s" msg
  | Cancelled -> Format.pp_print_string ppf "cancelled"

let verdict_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Failed -> "failed"

let verdict_of_name = function
  | "healthy" -> Some Healthy
  | "degraded" -> Some Degraded
  | "failed" -> Some Failed
  | _ -> None

let pp_health ppf h =
  Format.fprintf ppf
    "%s (%d seed%s: %d finished, %d deadlocked, %d livelocked, %d \
     fuel-exhausted, %d faulted, %d crashed, %d cancelled)"
    (verdict_name h.h_verdict) h.h_seeds
    (if h.h_seeds = 1 then "" else "s")
    h.h_finished h.h_deadlocked h.h_livelocked h.h_fuel_exhausted h.h_faulted
    h.h_crashed h.h_cancelled;
  List.iter (fun n -> Format.fprintf ppf "@\n  %s" n) h.h_notes

(* ------------------------------------------------------------------ *)
(* Stable serialized forms                                            *)

module J = Arde_util.Json

let health_to_json h =
  J.Obj
    [
      ("verdict", J.String (verdict_name h.h_verdict));
      ("seeds", J.Int h.h_seeds);
      ("finished", J.Int h.h_finished);
      ("deadlocked", J.Int h.h_deadlocked);
      ("livelocked", J.Int h.h_livelocked);
      ("fuel_exhausted", J.Int h.h_fuel_exhausted);
      ("faulted", J.Int h.h_faulted);
      ("crashed", J.Int h.h_crashed);
      ("cancelled", J.Int h.h_cancelled);
      ("notes", J.List (List.map (fun n -> J.String n) h.h_notes));
    ]

let health_of_json j =
  let ( let* ) = Result.bind in
  let int_field name =
    match Option.bind (J.member name j) J.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let* verdict =
    match Option.bind (J.member "verdict" j) J.to_str with
    | Some s -> (
        match verdict_of_name s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown verdict %S" s))
    | None -> Error "missing field \"verdict\""
  in
  let* h_seeds = int_field "seeds" in
  let* h_finished = int_field "finished" in
  let* h_deadlocked = int_field "deadlocked" in
  let* h_livelocked = int_field "livelocked" in
  let* h_fuel_exhausted = int_field "fuel_exhausted" in
  let* h_faulted = int_field "faulted" in
  let* h_crashed = int_field "crashed" in
  let* h_cancelled = int_field "cancelled" in
  let* h_notes =
    match Option.bind (J.member "notes" j) J.to_list with
    | Some xs ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match J.to_str x with
            | Some s -> Ok (s :: acc)
            | None -> Error "ill-typed note")
          (Ok []) xs
        |> Result.map List.rev
    | None -> Error "missing field \"notes\""
  in
  Ok
    {
      h_seeds;
      h_finished;
      h_deadlocked;
      h_livelocked;
      h_fuel_exhausted;
      h_faulted;
      h_crashed;
      h_cancelled;
      h_verdict = verdict;
      h_notes;
    }

let seed_run_to_json sr =
  J.Obj
    [
      ("seed", J.Int sr.sr_seed);
      ("outcome", J.String (Format.asprintf "%a" pp_seed_outcome sr.sr_outcome));
      ( "crashed",
        J.Bool
          (match sr.sr_outcome with
          | Crashed _ -> true
          | Completed _ | Cancelled -> false) );
      ("steps", J.Int sr.sr_steps);
      ("contexts", J.Int sr.sr_contexts);
      ("capped", J.Bool sr.sr_capped);
      ("spin_edges", J.Int sr.sr_spin_edges);
      ("memory_words", J.Int sr.sr_memory_words);
      ( "check_failures",
        J.List
          (List.map
             (fun (l, msg) ->
               J.Obj [ ("loc", Report.loc_to_json l); ("msg", J.String msg) ])
             sr.sr_check_failures) );
      ( "cv_diagnostics",
        J.List
          (List.map
             (fun d ->
               J.String (Format.asprintf "%a" Cv_checker.pp_diagnostic d))
             sr.sr_cv_diagnostics) );
    ]

let prediction_to_json p =
  J.Obj
    [
      ("sections", J.Int p.pr_sections);
      ("events", J.Int p.pr_events);
      ("candidates", J.Int p.pr_candidates);
      ("predicted", J.Int p.pr_predicted);
      ("new_contexts", J.Int p.pr_new_contexts);
      ("closure_steps", J.Int p.pr_closure_steps);
      ("budget_hits", J.Int p.pr_budget_hits);
      ("notes", J.List (List.map (fun n -> J.String n) p.pr_notes));
    ]

let result_to_json r =
  J.Obj
    ([
       ("mode", J.String (Config.mode_name r.mode));
       ("spin_loops", J.Int r.n_spin_loops);
       ("report", Report.to_json r.merged);
       ("runs", J.List (List.map seed_run_to_json r.runs));
       ( "static_cv_hazards",
         J.List
           (List.map
              (fun d ->
                J.String (Format.asprintf "%a" Cv_checker.pp_diagnostic d))
              r.static_cv_hazards) );
       ("health", health_to_json r.health);
     ]
    (* absent for sweep results, keeping pinned documents byte-stable *)
    @
    match r.prediction with
    | None -> []
    | Some p -> [ ("prediction", prediction_to_json p) ])

(* ------------------------------------------------------------------ *)
(* Same-trace comparison                                              *)

let compare_on_trace ?(options = Options.default) ~k program modes =
  List.iter
    (fun mode ->
      if Config.needs_lowering mode then
        invalid_arg
          "Driver.compare_on_trace: library-free modes run a different \
           (lowered) program and cannot share a trace")
    modes;
  let valid = Arde_tir.Validate.validate_exn program in
  let instrument = Some (Arde_cfg.Instrument.analyze ~k program) in
  let cv_mutexes = Engine.cv_mutexes_of program in
  let compiled = Machine.compile_valid valid in
  let merged =
    List.map (fun mode -> (mode, Report.create ~cap:max_int ())) modes
  in
  (* Every mode's engine is teed onto the machine's observer, so each
     seed runs once and its events reach the engines in order, without
     being buffered. *)
  List.iter
    (fun seed ->
      let engines =
        List.map
          (fun mode ->
            let detector_cfg =
              Config.make ~sensitivity:options.Options.sensitivity
                ~cap:options.Options.cap mode
            in
            (* Spin-less engines must not see the loop metadata, or they
               would suppress marked bases like the spin-aware ones. *)
            let mode_instrument =
              if Config.spin_k mode <> None then instrument else None
            in
            Engine.create ~cv_mutexes detector_cfg ~instrument:mode_instrument)
          modes
      in
      let mcfg =
        {
          Machine.policy = options.Options.policy;
          seed;
          fuel = options.Options.fuel;
          instrument;
          spurious_wakeups = options.Options.spurious_wakeups;
          observer =
            List.fold_left
              (fun obs e -> Observer.tee obs (Engine.observer e))
              Observer.none engines;
        }
      in
      ignore (Machine.run mcfg compiled);
      List.iter2
        (fun (_, into) e ->
          Report.merge_into into (Engine.report e);
          Engine.finish e)
        merged engines)
    options.Options.seeds;
  merged
