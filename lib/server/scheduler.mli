(** The supervisor's request scheduler: one FIFO per worker slot
    (digest-affinity dispatch routes a program's requests to the same
    worker so its prepared-bundle cache stays hot), a {e global}
    admission bound across all queues, and the drain state machine.

    Slot accounting is the load-bearing invariant: a job holds exactly
    one unit of [depth] from {!submit}/{!enqueue} until {!take},
    {!drain_slot} or {!remove}; a refused submission holds none, a
    cancelled job releases its unit immediately and is counted in
    {!cancelled}.  Admission capacity therefore recovers the moment
    work is refused, re-routed or deadline-cancelled — never only when
    a worker gets around to it.

    Unlike its single-process predecessor this scheduler never blocks
    and takes no locks: it is owned by the supervisor's event loop,
    which is one thread.  Do not share a [t] across domains. *)

type 'job t

val create : workers:int -> max_pending:int -> 'job t
(** Both arguments are clamped to at least 1. *)

type admission = Accepted | Overloaded | Draining

val submit : 'job t -> slot:int -> 'job -> admission
(** Admission-checked enqueue onto [slot]'s queue.  [Overloaded] when
    [depth] has reached [max_pending] (the job is counted in
    {!refused} and holds no capacity). *)

val enqueue : 'job t -> slot:int -> 'job -> unit
(** Re-routing path: move a job that {e already} passed admission onto
    another slot's queue (its capacity unit travels with it).  Not
    admission-checked. *)

val take : 'job t -> slot:int -> 'job option
(** Pop the slot's next job and mark the slot busy; [None] if the slot
    is already busy or its queue is empty.  At most one job is in
    flight per slot — a worker process executes one request at a
    time. *)

val finish : 'job t -> slot:int -> unit
val busy : 'job t -> slot:int -> bool

val drain_slot : 'job t -> slot:int -> 'job list
(** Remove and return every queued job of a dead slot (for re-routing
    via {!enqueue} or structured refusal).  Does not touch the busy
    flag. *)

val remove : 'job t -> pred:('job -> bool) -> 'job list
(** Remove every queued job matching [pred] (deadline-expired while
    queued), releasing their capacity and counting them in
    {!cancelled}.  Queue order of survivors is preserved. *)

val begin_drain : 'job t -> unit
val draining : 'job t -> bool

val depth : 'job t -> int
(** Total queued jobs across all slots. *)

val in_flight : 'job t -> int
val idle : 'job t -> bool
val refused : 'job t -> int
val cancelled : 'job t -> int
