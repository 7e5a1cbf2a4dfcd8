(** End-to-end detector runs: {!Input.t} + mode + context → merged report.

    The live pipeline has three stages:

    - {e prepare} (once per program): pick the program form — lowered for
      [Nolib_spin], as written otherwise — and run the instrumentation
      phase when the mode has a spin window.  Both go through
      {!Analysis_cache}, so repeated runs of the same program (suite
      sweeps, chaos storms, benchmarks) skip the static analysis.
    - {e per-seed} (pure, parallel): execute the machine with the engine
      attached as observer, one sandboxed run per seed, fanned out over a
      domain pool [Options.jobs] wide.
    - {e merge} (deterministic): fold the per-seed reports in seed order
      (a dynamic detector's findings accumulate over runs) and average
      the per-run racy-context counts (the paper's PARSEC metric).  The
      fold order is fixed, so results are byte-identical whatever the
      pool width.

    The record/replay split decouples the first two: {!record} runs the
    machine with a {!Trace_codec} sink attached and seals the event
    stream into a compact binary trace; {!run} on a [Recorded_trace]
    runs the detection half alone, streaming a recording through a
    fresh engine without re-executing the program.  Replaying a
    recording produces results byte-identical to the live run that made
    it — that identity is the subsystem's correctness oracle.  The codec
    is used only where a trace is the artifact.

    No event is held in memory on the way to a verdict: a predicting
    seed streams its live events into its predictor, and a recorded
    section decodes straight into one. *)

open Arde_tir.Types

type options = Options.t
(** Build with {!Options.make} and the [Options.with_*] combinators. *)

(** {1 Engine selection}

    The per-seed detector behind a closure record.  {!run} defaults to
    the optimized {!Engine}; the differential suite passes
    {!ref_engine} to drive the identical pipeline (chaos injection and
    all) through the frozen {!Engine_ref} oracle and compare results
    byte for byte. *)

type engine = {
  e_observer : Arde_runtime.Observer.t;
  e_report : unit -> Report.t;
  e_spin_edges : unit -> int;
  e_memory_words : unit -> int;
}

type engine_factory =
  Config.t ->
  cv_mutexes:string list ->
  inferred_locks:string list ->
  instrument:Arde_cfg.Instrument.t option ->
  engine

val opt_engine : engine_factory
(** {!Engine}, the epoch-based optimized detector (the default). *)

val ref_engine : engine_factory
(** {!Engine_ref}, the frozen reference detector. *)

(** {1 Run context}

    Everything about {e how} a run executes, as opposed to {e what} it
    analyzes (the input and mode): knob surface, engine choice, domain
    pool, cancellation, cache key.  One value replaces the optional
    argument sprawl the entry points used to share. *)

type ctx = {
  c_options : Options.t;
  c_engine : engine_factory;
  c_pool : Arde_util.Domain_pool.pool option;
      (** run the per-seed stage on a caller-owned resident pool (the
          serve daemon's long-lived one) instead of spawning domains per
          call; [Options.jobs] is ignored when set *)
  c_should_stop : unit -> bool;
      (** cooperative cancellation, consulted once per seed before that
          seed starts.  Once it returns [true], remaining seeds become
          [Cancelled] (health [Degraded]) while completed seeds keep
          their reports — the primitive behind the server's deadlines
          and graceful drain. *)
  c_program_digest : string option;
      (** caller-supplied key uniquely identifying the input program,
          forwarded to {!Analysis_cache.prepare}.  Left [None], a run
          is keyed by one digest of what the input already holds:
          [Digest.string] of a [Text] input's bytes, the canonical
          digest of a [Program] (computed once, by the prepare), the
          header digest of a [Recorded_trace].  A [Text] input is
          looked up under this key before it is parsed, so the key must
          identify the program the text parses to. *)
}

val ctx :
  ?options:options ->
  ?engine:engine_factory ->
  ?pool:Arde_util.Domain_pool.pool ->
  ?should_stop:(unit -> bool) ->
  ?program_digest:string ->
  unit ->
  ctx
(** Smart constructor; every field defaulted ([Options.default],
    {!opt_engine}, no pool, never stop, no digest). *)

(** {1 Results} *)

type seed_outcome =
  | Completed of Arde_runtime.Machine.outcome
      (** The machine ran to a verdict (which may itself be a deadlock,
          livelock, fuel exhaustion or program fault). *)
  | Crashed of loc option * string
      (** The detector itself failed on this seed — a broken machine
          invariant, an observer exception, injected chaos.  The location
          is the machine's fault site when one is known. *)
  | Cancelled
      (** The run's [c_should_stop] hook fired before this seed started
          (a server deadline, a drain).  Nothing ran for it; completed
          seeds' findings are unaffected. *)

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
      (* lost signals observed in this run *)
}

type health_verdict =
  | Healthy  (** every seed finished *)
  | Degraded
      (** some seed deadlocked, livelocked, starved, crashed or was
          cancelled *)
  | Failed  (** nothing ran: every seed crashed, or the pipeline did *)

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
  h_notes : string list; (* pipeline and per-seed crash messages *)
}
(** Self-diagnosis of a detector run: how each seed ended and an overall
    verdict.  [run] always returns one — it never raises, whatever the
    program or the injected perturbations do. *)

type prediction = {
  pr_sections : int;
      (** seeds actually predicted from: live seeds, or the sections of a
          recording *)
  pr_events : int;
      (** events consumed across them — observed live, or decoded from
          the recording's sections *)
  pr_candidates : int;
  pr_predicted : int;
      (** races the predictor reported (per-section, before the merge
          dedups contexts) *)
  pr_new_contexts : int;
      (** contexts the prediction added beyond the observed ones — the
          predictive headroom over the executions that ran *)
  pr_closure_steps : int;
  pr_budget_hits : int;
  pr_notes : string list;
      (** skipped seeds (an undecodable section, a predictor that
          raised) — a salvaged chaos trace degrades coverage, never
          correctness *)
}
(** What a predictive analysis did: {!Sp_predict} statistics summed over
    the sections consumed, plus how many merged contexts are new. *)

type result = {
  mode : Config.mode;
  merged : Report.t;
      (* union of warnings over all seeds; predicted races (tagged
         [r_predicted]) follow the observed ones *)
  runs : seed_run list; (* in seed order, whatever the pool did *)
  n_spin_loops : int; (* accepted by the instrumentation phase *)
  static_cv_hazards : Cv_checker.diagnostic list;
      (* waits without a predicate re-check loop *)
  health : health;
  prediction : prediction option;
      (* [Some] iff the run's analysis was [Predict] or [Both] and the
         run had at least one seed (cancelled seeds count) *)
}

(** {1 Entry points} *)

val predict_limit : int
(** Executions a [Predict] analysis consumes (2).  The differential
    gate promises every race the full sweep finds from at most this
    many executions, so it is contract, not tuning.  The predicted
    seeds are those at the first [predict_limit] positions of the seed
    list (of a recording's sections, for a trace); a cancelled one
    among them is skipped, not replaced by a later seed. *)

val run : ?ctx:ctx -> ?mode:Config.mode -> Input.t -> result
(** The one front door.  [Text] input is looked up in the analysis
    cache by its digest first and parsed and validated only on a miss
    ([Failed] health on errors); [Program] runs as is; and
    [Recorded_trace] is replayed — the machine never
    executes for a trace, and [mode] (if given) must agree with the
    recorded one.  [mode] defaults to [Helgrind_spin 7] for text/program
    inputs and to the recorded mode for traces.

    [Options.analysis] selects how races are found.  [Sweep] (default)
    is the pure dynamic path.  [Predict] runs only the first
    {!predict_limit} seeds and predicts sync-preserving races from
    their events ({!Arde_predict.Sp_predict}); [Both] sweeps every seed
    and predicts from the first {!predict_limit}.  A predicting seed
    streams the events its engine sees (after the chaos injector, where
    {!record}'s sink sits) into a {!Arde_predict.Sp_predict} predictor
    and finishes it inside its own per-seed body: no event is buffered,
    no trace is encoded or decoded, and the prediction is
    byte-identical to one made from a recording of the same run.  The
    predictor fails open: a stream it cannot place leaves the seed's
    detection untouched and becomes a skip note.  Either way predicted
    races are merged after the observed ones with [r_predicted] set on
    genuinely new contexts, and [result.prediction] carries the
    statistics.  For a [Recorded_trace] the analysis knob is read from
    [ctx] — a [Predict] request decodes the recording's existing
    sections and predicts from them on top of the pinned replay,
    executing nothing.

    Every run makes one analysis-cache lookup under one digest
    ([c_program_digest]): a [Text] hit counts one prepare hit and
    parses nothing, a miss counts one prepare miss, and a text that
    does not parse counts neither.  The prepared bundle carries
    everything the run reads besides the seeds' own work — the
    instrumentation the predictor suppresses by, and the static
    spurious-wakeup hazards, scanned once per bundle.

    Fault-isolated and parallel: each seed executes in a sandbox on the
    domain pool, so one seed crashing (or the whole pipeline failing to
    prepare the program) yields a [Crashed] seed outcome / [Failed]
    health record while every healthy seed's warnings are still merged.
    The merged report, health verdict and run list are independent of
    [Options.jobs]; a [jobs] request beyond the host core count is
    clamped, with a note recorded in [health.h_notes] — except on a
    resident pool ([ctx.c_pool]), which ignores [jobs] and so records
    no note.  This function does not raise. *)

type recording = {
  rec_trace : string;  (** the complete binary trace *)
  rec_result : result option;  (** the live result when [detect] was on *)
}

val record :
  ?ctx:ctx ->
  ?mode:Config.mode ->
  ?detect:bool ->
  ?source:string ->
  Input.t ->
  (recording, string) Stdlib.result
(** Execute the program across [ctx]'s seeds with a {!Trace_codec} sink
    attached and assemble the binary trace.  With [detect] (default
    [false]) the full engine pipeline runs alongside and the live result
    is returned too — the sink sits between the chaos injector and the
    engine, so the recorded stream is exactly what the engine saw.
    Without it, only the injector and the sink observe the run: the
    cheap recording mode whose overhead the bench gate bounds against
    the quiet fast path.

    [source] is a free-form origin label stored in the header (the CLI
    stores the workload name).  [Error] covers inputs that cannot be
    recorded: unparseable text, a pipeline that fails to prepare, or a
    recording given as input. *)

(** {1 Inspection helpers} *)

val health_of : ?notes:string list -> seed_run list -> health
(** Tally seed outcomes into a health record (exposed for harnesses that
    assemble runs themselves). *)

val mean_contexts : result -> float
(** Average distinct racy contexts per seed — the paper's table entry. *)

val racy_bases : result -> string list

val any_bad_outcome : result -> seed_outcome option
(** First seed outcome that is not [Completed Finished], if any. *)

val pp_seed_outcome : Format.formatter -> seed_outcome -> unit

val pp_health : Format.formatter -> health -> unit

(** {1 Stable serialized forms}

    The [--format json] wire contract: CI and the bench harness consume
    these instead of scraping pretty-printed text. *)

val health_to_json : health -> Arde_util.Json.t
val health_of_json : Arde_util.Json.t -> (health, string) Stdlib.result
(** [health_of_json (health_to_json h) = Ok h]. *)

val result_to_json : result -> Arde_util.Json.t
(** Mode, spin-loop count, merged report ({!Report.to_json}), per-seed
    runs, static hazards, health — plus a ["prediction"] object when
    the analysis predicted (absent otherwise, keeping pinned sweep
    documents byte-stable). *)

val compare_on_trace :
  ?options:options ->
  k:int ->
  program ->
  Config.mode list ->
  (Config.mode * Report.t) list
(** Run each seed once (with spin instrumentation active) and feed its
    {e identical} event stream to an engine per mode, teed onto the
    machine's observer, isolating the algorithmic differences between
    detectors from schedule variance.
    Modes that require lowering run a different program and are rejected.

    @raise Invalid_argument on a [needs_lowering] mode. *)
