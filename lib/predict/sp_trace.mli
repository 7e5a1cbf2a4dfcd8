(** The flat trace form behind sync-preserving race prediction.

    A recorded section decodes into a totally ordered event sequence;
    this module re-indexes it for the predictor: every event gets a
    trace position, a thread position, and the {e requirements} the
    closure needs in O(1) —

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

    {!closure} runs the fixpoint for one candidate pair over a reusable
    {!ideal} workspace and answers whether the pair is
    sync-preserving-concurrent: no closure rule forces either candidate
    event into its own downset.  The witness is the downset read off in
    trace order — a subsequence, so every read still meets its writer
    last and every sync operation keeps its recorded order. *)

type t

val build : Arde_runtime.Event.t array -> t
(** Index one decoded section.  Events must be in recorded (trace)
    order; thread ids must be in [0, max_threads). *)

(** {1 Closure} *)

type ideal
(** Reusable closure workspace (frontiers, per-lock state).  One per
    predictor; {!closure} resets it. *)

val ideal : t -> ideal

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

(** {1 Diagnostics} *)
