(** Thread scheduling policies for the interpreting machine.

    The machine asks the scheduler which runnable thread executes the next
    instruction.  All policies are deterministic given their seed, which is
    what makes every experiment in this repository replayable. *)

type policy =
  | Round_robin of int
      (* quantum in instructions; fully deterministic, used by semantics
         tests *)
  | Uniform  (** a fresh uniform pick every instruction; maximal churn *)
  | Chunked of int
      (* run the current thread for a random burst with the given mean
         length, then switch; the default — realistic preemption that still
         exposes racy interleavings across seeds *)

type t

val create : policy -> seed:int -> t

val pick : t -> runnable:int array -> n:int -> int
(** Choose the next thread among the first [n] entries of [runnable]
    (ascending, [n] ≥ 1).  The buffer is caller-owned and reused across
    steps — [pick] never allocates, and for a given policy + seed the
    choice (and the PRNG draw sequence) depends only on the successive
    runnable sets, not on how they are stored.  Continuing the current
    burst is O(1) while the current thread sits where it was last seen
    in the buffer; otherwise one scan finds it again. *)

val force_switch : t -> unit
(** A [Yield] hint: end the current burst so another thread gets picked. *)

val policy_name : policy -> string
(** ["rr:N"], ["uniform"] or ["chunked:N"] — the spelling {!parse_policy}
    accepts, used by the CLI and the serve wire protocol. *)

val parse_policy : string -> (policy, string) result
(** Inverse of {!policy_name}. *)
