(** Shadow memory: one cell of detector state per accessed memory cell.

    This is the "shadow cell in which the race detector stores additional
    information" of the paper's instrumentation description; its footprint
    is what the memory-consumption figure measures. *)

open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock

type access = {
  a_tid : int;
  a_clk : int; (* the accessor's own clock component at the access *)
  a_loc : loc;
  a_write : bool;
  a_atomic : bool;
}

type cell = {
  mutable state : Msm.state;
  mutable lockset : Lockset.t;
  mutable last_write : access option;
  mutable write_vc : Vc.t; (* writer's full clock at the last write *)
  mutable reads : access list; (* latest read per thread since last write *)
  mutable atomic_vc : Vc.t; (* accumulated release clock of atomic ops *)
  mutable primed : bool; (* long-running sensitivity armed *)
}

type t

val create : unit -> t
val cell : t -> string * int -> cell
(** Find or allocate. *)

val size_words : t -> int
(** Approximate heap words held by all cells (memory experiment). *)

val record_read : cell -> access -> unit
(** Replace the accessor's previous read entry, keep others. *)
