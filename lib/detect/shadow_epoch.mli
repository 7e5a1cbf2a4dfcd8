(** Epoch-based shadow memory: the optimized {!Engine}'s per-cell state.

    Three changes relative to the reference {!Shadow}:

    - cells live in flat rows indexed by the interned base id events carry
      ({!Arde_runtime.Event}), so the per-access lookup is two array
      indexings instead of hashing a [(string, int)] tuple (events without
      an id — hand-built streams — fall back to a spill table);
    - the last write is an inlined epoch ([w_tid], [w_clk], location)
      rather than an [access option], so recording a write allocates
      nothing;
    - the read state is a single inlined epoch while one thread is reading
      and is only promoted to the reference engine's latest-read-per-thread
      list when a second thread shows up.  A write demotes it back
      ({!clear_reads}).

    The full writer clock [w_vc] — needed only as the source of spin
    happens-before edges — is maintained solely for bases the engine marks
    as spin-condition variables; everything else keeps the O(1) epoch. *)

open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock

type read = { r_tid : int; r_clk : int; r_loc : loc }

type cell = {
  mutable state : Msm.state;
  mutable lockset : Lockset.t;
  mutable w_tid : int; (* -1: never written *)
  mutable w_clk : int;
  mutable w_loc : loc;
  mutable w_atomic : bool;
  mutable w_vc : Vc.t; (* writer's full clock; sync bases only *)
  mutable rd_tid : int; (* >= 0: single epoch; -1: none; -2: promoted *)
  mutable rd_clk : int;
  mutable rd_loc : loc;
  mutable rd_list : read list; (* promoted: latest read per thread *)
  mutable atomic_vc : Vc.t;
  mutable primed : bool;
}

val none : int
(** [-1], the empty [w_tid]/[rd_tid] marker. *)

val promoted : int
(** [-2], the [rd_tid] marker for the list representation. *)

type t

val create : unit -> t

val cell : t -> base_id:int -> base:string -> idx:int -> cell
(** Find or allocate.  [base] is only consulted when [base_id < 0]. *)

val record_read : cell -> tid:int -> clk:int -> loc:loc -> unit
val clear_reads : cell -> unit

val n_cells : t -> int
(** Cells materialized so far (touched, not capacity). *)

val size_words : t -> int
(** Approximate heap words held (memory experiment). *)
