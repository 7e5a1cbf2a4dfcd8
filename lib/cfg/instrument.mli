(** Whole-program spin instrumentation metadata.

    [analyze ~k p] runs the instrumentation phase over every function of
    [p]: builds CFGs, finds natural loops, classifies each with
    {!Spin.classify}, and packages the accepted loops into the lookup
    structures the runtime needs on its hot path:

    - is this (function, label) the header of a marked loop?
    - is this (function, label) inside a given marked loop's body?
    - is this load site a marked condition load, and of which loops?
    - is this global base a synchronization variable (so the detector
      suppresses "synchronization races" on it, per the paper)? *)

open Arde_tir.Types

type spin = { s_id : int; s_cand : Spin.candidate }

type t

val analyze : ?count_callees:bool -> k:int -> program -> t
(** [count_callees] is the window-accounting ablation knob; see
    {!Spin.classify}. *)

val spins : t -> spin list

val header_at : t -> fname:string -> lbl:label -> int option
(** Spin-loop id whose header is this block, if any. *)

val in_loop : t -> fname:string -> lbl:label -> int -> bool
(** Is the block part of loop [id]'s body? *)

val loops_containing : t -> fname:string -> lbl:label -> int list
(** Ids of every loop whose body contains the block, ascending and
    without duplicates: [List.filter (in_loop t ~fname ~lbl)] over the
    ids of {!spins}, read from the membership table in one lookup. *)

val marked_loops_at : t -> loc -> int list
(** Ids of loops for which this load site is a condition load. *)

val is_sync_base : t -> string -> bool
(** Is the base a condition variable of some accepted spin loop? *)

val find_spin : t -> int -> spin

val pp_summary : Format.formatter -> t -> unit
(** Human-readable listing of accepted and rejected loops (CLI
    [spin-report]). *)
