(** The observation stream the machine feeds to race detectors.

    This is the moral equivalent of what a Valgrind tool sees: every memory
    access with its code location, every native synchronization operation,
    thread lifecycle edges, and — when spin instrumentation is active —
    loop-context enter/exit markers plus a [spin] tag on condition loads.

    Events are plain data; detectors must not assume anything about timing
    beyond stream order, which is the machine's global interleaving
    order.

    {2 The access contract}

    Every [Read] and [Write] of one stream satisfies:
    - [0 <= base_id < ]{!max_base_id};
    - [base_id] and [base] correspond one to one: an id always comes
      with the same base, and a base always with the same id;
    - [idx >= 0].

    {!Machine} and {!Machine_ref} meet it by construction: ids come from
    the program's intern table ({!Arde_tir.Intern}) and an index is
    bounds-checked before its access is emitted.
    {!Trace_codec.decode_events}, the one door through which events
    come from outside, refuses a read or write that breaks it.
    Consumers key flat per-cell state by [base_id] and [idx] with
    checked array accesses, so a hand-built stream that breaks the
    contract raises [Invalid_argument] (a crashed seed under the
    driver's sandbox) rather than reading out of bounds. *)

open Arde_tir.Types

type access_kind = Plain | Atomic

type t =
  | Read of {
      tid : int;
      base : string;
      base_id : int;
          (* dense interned id of [base] ({!Arde_tir.Intern}), assigned at
             machine compile time (see the access contract above).
             Detectors key flat shadow state by it instead of hashing
             [(base, idx)]. *)
      idx : int;
      value : int;
      loc : loc;
      kind : access_kind;
      spin : (int * int) list;
          (* (loop id, context serial) for every active spin context this
             load is a marked condition load of *)
    }
  | Write of {
      tid : int;
      base : string;
      base_id : int;
      idx : int;
      value : int;
      loc : loc;
      kind : access_kind;
    }
  | Lock_acq of { tid : int; base : string; idx : int; loc : loc }
  | Lock_rel of { tid : int; base : string; idx : int; loc : loc }
  | Cv_signal of {
      tid : int;
      base : string;
      idx : int;
      loc : loc;
      broadcast : bool;
      had_waiter : bool;
          (* was any thread waiting when the signal fired?  A signal into
             the void is a potential lost signal. *)
    }
  | Cv_wait_begin of { tid : int; base : string; idx : int; loc : loc }
  | Cv_wait_return of { tid : int; base : string; idx : int; loc : loc }
  | Barrier_arrive of {
      tid : int;
      base : string;
      idx : int;
      generation : int;
      loc : loc;
    }
  | Barrier_pass of {
      tid : int;
      base : string;
      idx : int;
      generation : int;
      loc : loc;
    }
  | Sem_post_ev of { tid : int; base : string; idx : int; loc : loc }
  | Sem_acquire of { tid : int; base : string; idx : int; loc : loc }
  | Spawn_ev of { parent : int; child : int; loc : loc }
  | Join_return of { tid : int; target : int; loc : loc }
  | Thread_start of { tid : int }
  | Thread_exit of { tid : int }
  | Spin_enter of { tid : int; loop_id : int; ctx : int }
  | Spin_exit of { tid : int; loop_id : int; ctx : int }

val max_base_id : int
(** [2{^20}]: base ids are below it (the access contract). *)

val tid_of : t -> int
val pp : Format.formatter -> t -> unit
