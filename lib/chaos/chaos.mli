(** Deterministic fault injection for the detection pipeline.

    The paper's detector has to survive programs it was never taught
    about; this module makes sure the {e pipeline} survives runs it was
    never taught about.  A {!perturbation} is a single deterministic
    distortion of a detector run — an adversarial scheduler, forced
    spurious wakeups, a machine fault or internal crash injected at the
    Nth observed event, fuel starvation, a shifted seed set.  {!storm}
    sweeps many perturbations (all derived from one PRNG seed, so every
    storm is replayable) through [Driver.run] and reports whether any
    exception ever escaped the sandbox — the property the robustness
    suite pins down: the pipeline never raises and always yields a health
    record. *)

type perturbation =
  | Adversarial_policy of Arde_runtime.Sched.policy
      (** Replace the scheduling policy wholesale. *)
  | Spurious_wakeups  (** Force the machine's spurious-wakeup injection. *)
  | Fault_at of int
      (** Raise [Machine.Fault_exn] from the observer at the Nth event of
          each seed: the machine converts mid-step faults into a [Fault]
          outcome. *)
  | Crash_at of int
      (** Raise {!Chaos_crash} at the Nth event: an exception the machine
          does not understand, which must be caught by the driver's
          per-seed sandbox and surface as [Crashed]. *)
  | Starve_fuel of int  (** Run with this (tiny) fuel budget. *)
  | Shift_seeds of int  (** Add a constant to every scheduler seed. *)

exception Chaos_crash of string
(** The injected "detector bug" used by [Crash_at]. *)

val pp_perturbation : Format.formatter -> perturbation -> unit

val apply :
  Arde_detect.Options.t -> perturbation -> Arde_detect.Options.t
(** Distort a set of driver options with one perturbation. *)

val gen : Arde_util.Prng.t -> perturbation
(** Draw a perturbation deterministically from the generator. *)

type report = {
  ch_runs : int;
  ch_healthy : int;
  ch_degraded : int;
  ch_failed : int;
  ch_escaped : (perturbation * string) list;
      (** Exceptions that escaped [Driver.run] — always a bug; the
          sandbox exists so this list stays empty. *)
}

val storm :
  ?options:Arde_detect.Options.t ->
  ?runs:int ->
  seed:int ->
  Arde_detect.Config.mode ->
  Arde_tir.Types.program ->
  report
(** [storm ~seed mode program] executes [runs] (default 50) perturbed
    detector runs, perturbations drawn from [Prng.create seed], and
    tallies the resulting health verdicts. *)

(** {1 Serve-path fault plans}

    Deterministic fault injection for the crash-only serving stack: a
    {!Serve.plan} names which process-level faults a worker inflicts on
    itself and how often, counted in requests that worker has executed.
    The plan travels to worker processes as a string (the hidden
    [--chaos-plan] flag), so it must round-trip through
    {!Serve.to_string} / {!Serve.parse}.  The supervisor's job is to
    make every one of these faults invisible to clients except as a
    structured, retryable error. *)

module Serve : sig
  type fault =
    | Kill_self
        (** SIGKILL the worker process mid-request, after the spool
            journal is written — the moral equivalent of a segfault. *)
    | Wedge
        (** Stop answering: burn wall-clock ignoring [should_stop] until
            the supervisor's watchdog kills the worker. *)
    | Torn_frame
        (** Write half of the response frame, then exit — the supervisor
            sees EOF mid-frame and must treat it as a crash. *)
    | Slow_frame
        (** Dribble the response frame byte-group by byte-group — the
            supervisor's reassembly must survive arbitrary chunking. *)
    | Spool_enospc
        (** Fail the spool journal write with ENOSPC — journaling is
            best-effort, the request must still be served. *)

  type plan = (fault * int) list
  (** Each [(fault, k)] entry fires on every request whose per-worker
      ordinal is a positive multiple of [k]. *)

  val empty : plan

  val parse : string -> (plan, string) result
  (** Parse ["kill:13,wedge:40"]-style specs.  [""] is {!empty}. *)

  val to_string : plan -> string

  val fires : plan -> count:int -> fault list
  (** The faults due on the [count]-th request ([count >= 1]). *)

end

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Arde_util.Json.t
(** Stable serialized form for [arde chaos --format json]. *)
