(** Epoch-based shadow memory: the optimized {!Engine}'s per-cell state.

    Three changes relative to the reference {!Shadow}:

    - cells live in flat rows indexed by the interned base id and the
      index events carry, so the per-access lookup is two array indexings
      instead of hashing a [(string, int)] tuple.  This relies on the
      access contract of {!Arde_runtime.Event}: one id per base, both
      id and index non-negative;
    - the last write is an inlined epoch ([w_tid], [w_clk], location)
      rather than an [access option], so recording a write allocates
      nothing;
    - the read state is a single inlined epoch while one thread is reading
      and is only promoted to the reference engine's latest-read-per-thread
      list when a second thread shows up.  A write demotes it back
      ({!clear_reads}).

    Rows and cells outlive a seed: {!reset} bumps a stamp, and a cell
    from an earlier seed is renewed in place on its first lookup, so a
    reused table allocates a cell only where no seed touched one
    before.

    The full writer clock [w_vc] — needed only as the source of spin
    happens-before edges — is maintained solely for bases the engine marks
    as spin-condition variables; everything else keeps the O(1) epoch. *)

open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock

type read = { r_tid : int; r_clk : int; r_loc : loc }

type cell = {
  mutable stamp : int;  (* the seed the cell was last renewed for *)
  mutable state : int;  (* {!Msm} coded state *)
  mutable lockset : Lockset.Dense.t;
  mutable w_tid : int; (* -1: never written *)
  mutable w_clk : int;
  mutable w_loc : loc;
  mutable w_atomic : bool;
  mutable w_vc : Vc.t; (* writer's clock, raised to [wv_clk@wv_tid]; sync bases only *)
  mutable wv_tid : int;
  mutable wv_clk : int;
  mutable rd_tid : int; (* >= 0: single epoch; -1: none; -2: promoted *)
  mutable rd_clk : int;
  mutable rd_loc : loc;
  mutable rd_list : read list; (* promoted: latest read per thread *)
  mutable atomic_vc : Vc.t; (* release clock, raised to [a_clk@a_tid] *)
  mutable a_tid : int;
  mutable a_clk : int;
  mutable primed : bool;
}

val none : int
(** [-1], the empty [w_tid]/[rd_tid] marker. *)

val promoted : int
(** [-2], the [rd_tid] marker for the list representation. *)

type t

val create : unit -> t

val reset : t -> unit
(** Start the next seed: every cell reads as never touched, and the
    rows and cells keep their allocation.  A cell from before is
    renewed on its first lookup. *)

val cell : t -> base_id:int -> idx:int -> cell
(** Find, renew or allocate.
    @raise Invalid_argument when [base_id] or [idx] is negative. *)

val record_read : cell -> tid:int -> clk:int -> loc:loc -> unit
val clear_reads : cell -> unit

val n_cells : t -> int
(** Cells touched since the last {!reset} (not capacity). *)

val size_words : t -> int
(** Approximate heap words a table fresh at the last {!reset} would
    hold now (memory experiment): the rows this seed grew and its
    cells, not the capacity kept from earlier seeds. *)

val footprint : t -> int
(** Slots held: the row table's length plus every row's. *)
