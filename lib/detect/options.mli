(** First-class detection options.

    This is the one knob surface for the whole pipeline: build a value
    with {!make} (every field defaulted) and refine it with the [with_*]
    combinators:

    {[
      let options =
        Arde.Options.make ~jobs:4 ()
        |> Arde.Options.with_seed_count 10
        |> Arde.Options.with_fuel 400_000
      in
      Arde.detect ~options mode program
    ]}

    The record is exposed so {!Driver} and pattern-matching callers can
    read fields directly, but construction should go through {!make} /
    [with_*] — new fields get defaults there, so adding one never breaks
    a caller. *)

type analysis =
  | Sweep  (** the classic 16-seed-style dynamic sweep: one detector
               run per seed, races observed directly *)
  | Predict
      (** record a couple of executions and {e predict} sync-preserving
          races from the traces ({!Arde_predict.Sp_predict}) — many
          fewer executions for the same racy contexts *)
  | Both  (** full sweep plus prediction from the first recordings —
              the differential-testing configuration *)

val analysis_name : analysis -> string
(** ["sweep"] / ["predict"] / ["both"] — the wire and CLI spelling. *)

type t = {
  seeds : int list;  (** scheduler seeds, one detector run each *)
  policy : Arde_runtime.Sched.policy;
  fuel : int;  (** max machine steps per seed *)
  jobs : int;
      (** domain-pool width for the per-seed stage.  [0] means "use
          {!default_jobs}".  Results are independent of this value: the
          merge stage is order-stable, so [jobs = 1] and [jobs = N]
          produce byte-identical merged reports and health verdicts. *)
  sensitivity : Msm.sensitivity;
  cap : int;  (** racy-context cap per run (the paper uses 1000) *)
  lower_style : Arde_tir.Lower.style;
  spurious_wakeups : bool;
  count_callee_blocks : bool;
      (** count condition-helper callee blocks toward the spin window
          (the paper's accounting); [false] is the ablation *)
  analysis : analysis;  (** how races are found; {!Sweep} by default *)
  inject : (seed:int -> Arde_runtime.Event.t -> unit) option;
      (** extra per-seed observer, teed in ahead of the engine.  It may
          raise: [Machine.Fault_exn] becomes a machine [Fault] outcome,
          anything else crashes that seed's sandbox (chaos testing).
          The [~seed] application happens on the worker domain running
          that seed, so the returned closure owns its state; state shared
          {e across} seeds must be domain-safe. *)
}

val default_jobs : int
(** [Domain.recommended_domain_count ()], sampled at startup. *)

val default : t
(** Seeds 1–5, [Chunked 6], 2M fuel, [jobs = 0] (hardware width),
    short-running, cap 1000, realistic lowering, no spurious wakeups,
    callee blocks counted, no injection. *)

val make :
  ?seeds:int list ->
  ?policy:Arde_runtime.Sched.policy ->
  ?fuel:int ->
  ?jobs:int ->
  ?sensitivity:Msm.sensitivity ->
  ?cap:int ->
  ?lower_style:Arde_tir.Lower.style ->
  ?spurious_wakeups:bool ->
  ?count_callee_blocks:bool ->
  ?analysis:analysis ->
  ?inject:(seed:int -> Arde_runtime.Event.t -> unit) ->
  unit ->
  t
(** [make ()] is {!default}; each argument overrides one field. *)

(** {1 Combinators} — pipe-friendly: [options |> with_fuel 1000]. *)

val with_seeds : int list -> t -> t

val with_seed_count : int -> t -> t
(** [with_seed_count n] is [with_seeds [1; …; n]] — the CLI idiom. *)

val with_policy : Arde_runtime.Sched.policy -> t -> t
val with_fuel : int -> t -> t
val with_jobs : int -> t -> t
val with_lower_style : Arde_tir.Lower.style -> t -> t
val with_spurious_wakeups : bool -> t -> t
val with_count_callee_blocks : bool -> t -> t
val with_analysis : analysis -> t -> t
val with_inject : (seed:int -> Arde_runtime.Event.t -> unit) option -> t -> t

(** {1 Wire form}

    The serve protocol ships the whole option surface as one JSON
    object.  [inject] is a closure and never crosses the wire; every
    other field does.  [of_json] treats absent fields as defaults, so
    [Obj []] is a valid (all-default) payload, and
    [of_json (to_json t) = Ok { t with inject = None }].  The
    [analysis] field is emitted only when it is not {!Sweep}, keeping
    recorded trace headers and pinned documents byte-identical. *)

val to_json : t -> Arde_util.Json.t
val of_json : Arde_util.Json.t -> (t, string) result

val effective_jobs : t -> n_seeds:int -> int
(** The domain-pool width a run will actually use: [jobs] (or
    {!default_jobs} when [jobs <= 0]) clamped to the host core count
    ({!default_jobs}) and to the seed count, at least 1. *)

val jobs_clamp : t -> (int * int) option
(** [Some (requested, host)] when [jobs] exceeds the host core count and
    {!effective_jobs} will clamp it; [None] otherwise. *)
