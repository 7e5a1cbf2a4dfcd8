(** The flat trace form behind sync-preserving race prediction.

    A seed's events arrive in their total (trace) order, live from the
    machine or decoded from a recording; this module indexes them for
    the predictor as they arrive: every event gets a trace position, a
    thread position, and the {e requirements} the closure needs in
    O(1) —

    - the thread-order predecessor (per-thread prefixes are the
      "ideals" of Mathur/Pavlogiannis/Viswanathan's algorithm: a
      candidate's downset is always a union of thread prefixes);
    - for reads (plain {e and} atomic), the observed writer: the last
      write to the same cell before the read in trace order.  Pulling
      the writer into the downset is value preservation, and it is the
      whole of the ad-hoc-sync story — a spin loop's exit read observes
      the flag write, so any reordering keeping the read keeps the
      write, and with it everything the writer did first.  Lowered
      (atomic spin-lock) mutual exclusion is preserved the same way;
    - conservative library-sync requirements: a [Cv_wait_return] needs
      every earlier signal on its condition variable, a [Barrier_pass]
      every arrival of its generation, a [Sem_acquire] every earlier
      post, a [Join_return] the target's exit, and a thread's first
      event its [Spawn_ev];
    - for native lock acquires, the matching release — the one closure
      rule that is {e pairwise}: of any two in-downset acquires of the
      same lock, the earlier one's release must also be in (else the
      witness would acquire a held lock).

    The indexer keeps one dense cell table, keyed by the event's
    interned [base_id] and [idx] (the access contract of
    {!Arde_runtime.Event}), and lets its user hang per-cell state
    on each cell: the predictor's weak happens-before scan shares the
    table, so an access costs one lookup for both passes.

    {!closure} runs the fixpoint for one candidate pair over a reusable
    {!ideal} workspace and answers whether the pair is
    sync-preserving-concurrent: no closure rule forces either candidate
    event into its own downset.  The witness is the downset read off in
    trace order — a subsequence, so every read still meets its writer
    last and every sync operation keeps its recorded order. *)

type t

(** {1 Streaming} *)

type 'a cell = private {
  mutable base : string;
  mutable last_write : int;
      (** the latest write (any kind) indexed so far, or [-1] *)
  mutable stamp : int;  (** the seed the cell was last renewed for *)
  data : 'a;  (** the user's per-cell state *)
}
(** One memory cell, keyed by [base_id] and [idx]: [base] is the one
    base the stream gives that id. *)

type 'a indexer
(** Indexes one seed's events as they arrive.  It can be {!reset} and
    used for the next seed: every table keeps its capacity, and a cell
    from an earlier seed is renewed on its first lookup. *)

val indexer : ?renew:(string -> 'a -> unit) -> (string -> 'a) -> 'a indexer
(** [indexer ~renew fresh] calls [fresh base] once per new cell for its
    [data], and [renew base data] when a cell kept from before the last
    {!reset} is first looked up again (default: nothing). *)

val reset : 'a indexer -> unit
(** Forget every event, keeping the allocated tables.  The {!t} the
    last {!finish} returned, and its {!ideal}, become the next seed's. *)

val footprint : 'a indexer -> int
(** Slots the indexer holds: its per-event capacity plus the length of
    every cell row, of the per-lock and per-object tables and of the
    sync interner's bucket array.  A caller
    keeping indexers for reuse bounds this. *)

val length : 'a indexer -> int
(** Events indexed so far: the trace position the next one gets. *)

val cell : 'a indexer -> base_id:int -> base:string -> idx:int -> 'a cell
(** The access's cell, created on first sight.
    @raise Invalid_argument when [base_id] or [idx] is negative. *)

val read : 'a indexer -> tid:int -> 'a cell -> unit
(** Index a read of [cell] (looked up with {!cell}): its observed writer
    is [cell]'s current [last_write]. *)

val write : 'a indexer -> tid:int -> 'a cell -> unit
(** Index a write of [cell]; it becomes the cell's [last_write]. *)

val sync_id : 'a indexer -> Arde_runtime.Event.t -> int
(** A CV, semaphore or barrier event's object as a dense id, interned on
    first sight without allocating a key: [(base, idx)] per kind, plus
    the generation for barriers.  Native locks count in a separate id
    space.  [-1] for accesses, spawns, joins and thread and spin
    markers. *)

val push : 'a indexer -> Arde_runtime.Event.t -> unit
(** Index any event, looking accesses' cells up itself.  Thread ids
    outside [0, max_threads) index as thread 0.
    @raise Invalid_argument on an access breaking the access contract. *)

val finish : 'a indexer -> t
(** The index of everything pushed.  The indexer must not be pushed to
    afterwards, until {!reset}: [t] shares its arrays. *)

val build : Arde_runtime.Event.t array -> t
(** Push a whole event array (in trace order) through a fresh indexer
    and finish it. *)

(** {1 Closure} *)

type ideal
(** Reusable closure workspace (frontiers, per-lock state).  {!closure}
    resets it. *)

val ideal : t -> ideal
(** The index's own workspace, created on the first call: every call on
    one index returns the same one. *)

type verdict =
  | Concurrent  (** the pair survives closure: a predicted race *)
  | Ordered  (** a closure rule forces one endpoint in — no witness *)
  | Budget_exceeded  (** closure stopped at the step budget (treated
                         as [Ordered] by callers: prediction stays
                         sound, never complete) *)

val closure : ideal -> e1:int -> e2:int -> budget:int -> verdict * int
(** [closure w ~e1 ~e2 ~budget] closes the downset seeded with the two
    events' thread prefixes and returns the verdict plus the number of
    events processed.  [e1] and [e2] are trace positions of two
    accesses by different threads; [budget] bounds processed events. *)
