(** Process-wide cache for the static half of the pipeline.

    Lowering and spin instrumentation are pure functions of the program
    and a handful of knobs, yet the harnesses re-run them constantly: the
    suite analyzes each case once per detector configuration, a chaos
    storm analyzes the same program hundreds of times, a bench sweep
    repeats whole suites, and the serve daemon sees the same program on
    every repeat submission.  This cache memoizes three stages, keyed by
    [(program digest, knobs)]:

    - {!prepare} is keyed by [(digest, mode, style, count_callees)] and
      caches the {e whole} pre-seed bundle — lowered program,
      instrumentation, condition-variable scan, lock inference, the
      static spurious-wakeup hazards and the compiled machine.  A
      prepared hit is what lets a repeat submission skip straight to
      per-seed execution: the compiled form also carries the machine's
      per-instrumentation spin cache, so even that one-time cost
      survives across requests.  {!find_prepared} looks a bundle up by
      key alone, which is how a text input that hits is never parsed.
    - {!lowered} is keyed by [(digest, style)];
    - {!instrumented} is keyed by [(digest, lowering, k, count_callees)],
      where [lowering] is the style the analyzed program was lowered
      with from the program the digest names ([None]: analyzed as
      given).

    A prepare miss passes its own digest down to the two inner lookups,
    so one digest keys a program at every level and no lookup, hit or
    miss, pretty-prints anything.  Any digest that uniquely identifies
    the program will do, and schemes may coexist in one cache:
    [Driver.run] digests the bytes of a text input, the serve daemon its
    request text, and a recording carries the canonical digest
    ({!digest_of_program}, MD5 of the pretty-printed form, which the
    parser round-trips).  The canonical digest of a program equals the
    text digest of its canonical text, and a text determines its
    program, so two keys naming different programs cannot collide.
    Cached values are immutable after construction (the compiled form's
    internal spin cache is lock-free) and therefore safe to share across
    the driver's worker domains; the cache itself is mutex-guarded, so
    concurrent [Driver.run] calls may share it too.

    Every table is bounded, oldest entry evicted first: 128 prepared
    bundles (each pins a compiled machine) and {!max_inner} entries in
    each inner table, enough for the inner entries of a workload that
    cycles through more prepare keys than the prepared table holds. *)

type prepared = {
  p_program : Arde_tir.Types.program;  (** lowered iff the mode lowers *)
  p_instrument : Arde_cfg.Instrument.t option;
  p_cv_mutexes : string list;
  p_inferred_locks : string list;
  p_compiled : Arde_runtime.Machine.compiled;
  p_cv_hazards : Cv_checker.diagnostic list;
      (** {!Cv_checker.static_check} of [p_program], run once per
          bundle rather than once per run *)
}

val prepare :
  ?digest:string ->
  style:Arde_tir.Lower.style ->
  count_callees:bool ->
  Config.mode ->
  Arde_tir.Types.program ->
  prepared
(** The full static half for one (program, mode): what {!Driver.run}
    does before any seed executes.  A miss validates [program] first,
    before lowering or instrumenting it, so an invalid program fails
    with the validator's [Invalid_argument] in every mode; a hit
    validates nothing.  [?digest] must uniquely identify [program] and
    also keys the inner lowering and instrumentation lookups; omitted,
    the canonical digest is computed here (a full pretty-print).
    Concurrent misses on one key may each compute; the first bundle
    published is kept and, while the cache is enabled, every caller gets
    that one. *)

val prepare_valid :
  ?digest:string ->
  style:Arde_tir.Lower.style ->
  count_callees:bool ->
  Config.mode ->
  Arde_tir.Validate.valid ->
  prepared
(** {!prepare} for a program that already passed validation: nothing is
    checked again.  A lowering is validated once, when it is computed,
    and compiled as it is. *)

val find_prepared :
  digest:string ->
  style:Arde_tir.Lower.style ->
  count_callees:bool ->
  Config.mode ->
  prepared option
(** The bundle {!prepare} would return under the same key, if one is
    cached — without a program in hand.  A hit counts one prepare hit;
    a miss counts nothing, since the caller's {!prepare} that follows
    counts it.  Always [None] while the cache is disabled. *)

val text_digest : string -> string
(** [Digest.string text], computed once per text: the last
    [max_prepared] texts digested are kept, found again by hashing and
    comparing their bytes, and emptied by {!clear}. *)

val digest_of_program : Arde_tir.Types.program -> string
(** Digest of the program's canonical pretty-printed form.  Equal to
    [Digest.string] of that text, so it agrees with a text digest of
    canonical input. *)

val lowered : style:Arde_tir.Lower.style -> Arde_tir.Types.program ->
  Arde_tir.Types.program
(** Memoized lowering, keyed by the canonical digest.
    @raise Invalid_argument if the lowering does not validate. *)

val instrumented :
  count_callees:bool -> k:int -> Arde_tir.Types.program -> Arde_cfg.Instrument.t
(** Memoized instrumentation of the program as given, keyed by its
    canonical digest with no lowering. *)

val max_inner : int
(** Bound on each inner table, lowered and instrumented: 512, four times
    the 128 prepared bundles. *)

type stats = {
  lower_hits : int;
  lower_misses : int;
  instrument_hits : int;
  instrument_misses : int;
  prepare_hits : int;
  prepare_misses : int;
}

val stats : unit -> stats
(** Counters since the last {!reset_stats}; misses include lookups made
    while the cache is disabled.  A {!prepare} miss also records the
    inner lower/instrument lookups it performs; a prepare hit touches
    neither. *)

val stats_delta : before:stats -> after:stats -> stats
(** Counter movement between two snapshots — what one request did. *)

val stats_to_json : stats -> Arde_util.Json.t
(** The six counters as a JSON object; the shared shape [arde run
    --format json], the serve responses and the bench artifacts all
    use. *)

val reset_stats : unit -> unit

val clear : unit -> unit
(** Drop every entry (counters survive; use {!reset_stats} for those). *)
