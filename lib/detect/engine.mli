(** The race-detection engine: a pure observer over the machine's event
    stream implementing all four detector configurations.

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

val cv_mutexes_of : Arde_tir.Types.program -> string list
(** The [cv_mutexes] argument of {!create} for a program: the mutex bases
    its [cond_wait]s name, sorted and deduplicated. *)

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
    (the machine itself never exceeds the cap).

    The engine takes its domain's workspace — shadow memory, clocks,
    locksets, sync tables, spin accumulators — from its
    {!Arde_util.Kept} slot when it is free, and builds one otherwise (a
    second live engine on the domain, or [threads] above the cap).
    {!finish} hands it back for the next engine to reuse.  The report is
    the engine's own and outlives it. *)

val observer : t -> Arde_runtime.Event.t -> unit
(** Feed one event.  Reads and writes must meet the access contract of
    {!Arde_runtime.Event}; one that breaks it raises [Invalid_argument],
    as does any event after {!finish}. *)

val finish : t -> unit
(** Hand the workspace back to the domain, reset in place, unless it
    grew past {!Arde_util.Kept.cap} slots (shadow rows and cells, held
    locksets, the sync interner and per-object tables, spin
    accumulators) or was built for more than [max_threads] threads:
    then it is dropped.  Read {!memory_words} and {!n_shadow_cells}
    first; the report and {!n_spin_edges} stay readable.  An engine
    that is never finished (a seed that crashed mid-event) keeps its
    workspace, and the domain's next engine builds a fresh one.
    @raise Invalid_argument on a second call. *)

val retained : unit -> int
(** Slots of the workspace the calling domain keeps, 0 if none. *)

val report : t -> Report.t
val memory_words : t -> int
(** Approximate detector heap footprint (shadow cells + clock tables)
    of this seed, as an engine built fresh for it would hold: not the
    capacity a reused workspace has kept.
    @raise Invalid_argument after {!finish}. *)

val n_shadow_cells : t -> int
val n_spin_edges : t -> int
(** Happens-before edges injected by spin-loop exits so far. *)
