(** ARDE — ad-hoc synchronization identification for enhanced race
    detection.

    This is the library's front door.  It re-exports every sub-library
    under one namespace and provides the high-level entry points most
    clients need:

    {[
      let program = (* build a TIR program with Arde.Builder *) in
      let result = Arde.detect (Arde.Config.Helgrind_spin 7) program in
      Format.printf "%a" Arde.Report.pp result.Arde.Driver.merged
    ]}

    See DESIGN.md for the system inventory and EXPERIMENTS.md for the
    paper-reproduction results. *)

(* The threaded IR. *)
module Types = Arde_tir.Types
module Intern = Arde_tir.Intern
module Builder = Arde_tir.Builder
module Validate = Arde_tir.Validate
module Pretty = Arde_tir.Pretty
module Lower = Arde_tir.Lower
module Parse = Arde_tir.Parse

(* Instrumentation phase (control-flow analysis). *)
module Graph = Arde_cfg.Graph
module Dominators = Arde_cfg.Dominators
module Loops = Arde_cfg.Loops
module Slice = Arde_cfg.Slice
module Spin = Arde_cfg.Spin
module Instrument = Arde_cfg.Instrument
module Lock_infer = Arde_cfg.Lock_infer

(* Execution substrate. *)
module Event = Arde_runtime.Event

module Observer = Arde_runtime.Observer
(** The one composition surface for event consumers: engines, checkers,
    the in-memory [Trace] buffer and recording sinks all expose an
    [Observer.t], and all fan-out goes through [Observer.tee].  [Observer.none]
    (physical identity) arms the machine's quiet fast path. *)

module Sched = Arde_runtime.Sched
module Machine = Arde_runtime.Machine
module Machine_ref = Arde_runtime.Machine_ref
module Trace = Arde_runtime.Trace

module Trace_codec = Arde_runtime.Trace_codec
(** The compact binary trace format: varint-encoded events over
    per-section interned vocabulary, a versioned header carrying program
    digest, mode and knobs, and per-seed sections sealed with an
    integrity hash.  [Trace_codec.sink_observer] is the recording
    observer; see DESIGN.md for the wire layout. *)

(* Detection. *)
module Vector_clock = Arde_vclock.Vector_clock

(* Prediction: sync-preserving races from recorded traces, no
   re-execution.  [Options.with_analysis Predict] wires it into
   {!detect}; these are the raw per-section building blocks. *)
module Sp_trace = Arde_predict.Sp_trace
module Sp_predict = Arde_predict.Sp_predict
module Lockset = Arde_detect.Lockset
module Msm = Arde_detect.Msm
module Shadow = Arde_detect.Shadow
module Shadow_epoch = Arde_detect.Shadow_epoch
module Report = Arde_detect.Report
module Config = Arde_detect.Config
module Engine = Arde_detect.Engine
module Engine_ref = Arde_detect.Engine_ref
module Cv_checker = Arde_detect.Cv_checker
module Options = Arde_detect.Options
module Analysis_cache = Arde_detect.Analysis_cache

module Recorded = Arde_detect.Recorded
(** A loaded recording: the typed (mode/options/program) view of a
    binary trace, validated end to end. *)

module Input = Arde_detect.Input
(** What detection consumes — [Text], [Program] or [Recorded_trace].
    Every front door ({!detect}, [Driver.run], the serve protocol)
    takes one. *)

module Driver = Arde_detect.Driver

(* Robustness: deterministic fault injection for the pipeline itself. *)
module Chaos = Arde_chaos.Chaos

(* Result classification for labelled test cases. *)
module Classify = Classify

(* Utilities. *)
module Prng = Arde_util.Prng
module Table = Arde_util.Table
module Json = Arde_util.Json
module Base64 = Arde_util.Base64
module Domain_pool = Arde_util.Domain_pool
module Fifo_table = Arde_util.Fifo_table

let analyze_spins ~k program = Instrument.analyze ~k program
(** Run only the instrumentation phase: find and classify spinning read
    loops with window [k]. *)

let detect ?ctx ?mode input = Driver.run ?ctx ?mode input
(** Run detection on an {!Input.t} — the one front door.  For program
    inputs this is the full pipeline: lowering if the mode requires it,
    spin instrumentation if the mode has a window, execution under each
    seed, race detection, deterministic merge.  For a recorded trace the
    machine never runs: the recording replays through a fresh engine
    and yields the same result bytes as the live run
    that produced it.  [ctx] ({!Driver.ctx}) carries the how — options,
    engine choice, a resident domain pool, cooperative cancellation, and
    optionally the cache digest, which is otherwise derived once per run
    from the input: its bytes for text, the canonical digest for a
    program, the header digest for a trace. *)

let record ?ctx ?mode ?detect ?source input =
  Driver.record ?ctx ?mode ?detect ?source input
(** Execute once and seal the event stream into a binary trace
    ({!Driver.record}); replaying it with {!detect} later reproduces the
    detection results without re-running the program. *)

let classify_case ?options mode expectation program =
  let ctx = Driver.ctx ?options () in
  let result = Driver.run ~ctx ~mode (Input.Program program) in
  Classify.classify expectation ~reported:(Driver.racy_bases result)
(** Detect and classify against ground truth in one call (unit-suite
    helper). *)
