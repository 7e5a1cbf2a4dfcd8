(** The reference race-detection engine: the original, straightforward
    implementation kept as a differential-testing oracle for the optimized
    {!Engine}.  Semantics are frozen — the two must produce byte-identical
    {!Report}s on every event stream; [test_engine_diff] enforces it.

    A pure observer over the machine's event stream implementing all four
    detector configurations.

    One engine instance analyzes one execution.  Happens-before edges are
    drawn from: thread creation and join, condition variables, barriers,
    semaphores, atomic release/acquire chains, lock order (DRD only), and
    — in spin modes — the paper's runtime phase: every marked condition
    load snapshots the clock its cell's last writer had at the counterpart
    write, and the spinning thread joins those snapshots when it leaves the
    loop.  Accesses to globals marked as spin-condition variables are
    synchronization accesses and never reported ("synchronization races"
    suppression).

    The hybrid configurations additionally run the Eraser lockset and the
    Helgrind+ memory state machine; a warning needs a shared-modified cell,
    an empty candidate lockset and happens-before-concurrent accesses.  DRD
    reports on happens-before concurrency alone. *)

type t

val create :
  ?cv_mutexes:string list ->
  ?inferred_locks:string list ->
  ?threads:int ->
  Config.t ->
  instrument:Arde_cfg.Instrument.t option ->
  t
(** [instrument] must be the same metadata the machine runs with (or [None]
    for spin-less modes).  [cv_mutexes] are the global bases of mutexes
    associated with a condition variable (statically, via [cond_wait]):
    Helgrind+'s condition-variable pattern handling draws lock-order edges
    for exactly these mutexes, so gate-under-mutex fast paths do not
    false-positive in hybrid mode.  [threads] raises the per-thread
    capacity above [Tir.Types.max_threads] for hand-built event streams
    (the machine itself never exceeds the cap). *)

val observer : t -> Arde_runtime.Event.t -> unit
val report : t -> Report.t
val memory_words : t -> int
(** Approximate detector heap footprint (shadow cells + clock tables). *)

val n_spin_edges : t -> int
(** Happens-before edges injected by spin-loop exits so far. *)
