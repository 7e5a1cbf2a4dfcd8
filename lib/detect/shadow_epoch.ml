open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock
module Ls = Lockset.Dense
module Kept = Arde_util.Kept

type read = { r_tid : int; r_clk : int; r_loc : loc }

type cell = {
  mutable stamp : int;  (* the seed the cell was last renewed for *)
  mutable state : int;  (* {!Msm} coded state *)
  mutable lockset : Ls.t;
  (* Last-write epoch, fields inlined so a write allocates nothing.
     [w_tid = -1] means the cell was never written. *)
  mutable w_tid : int;
  mutable w_clk : int;
  mutable w_loc : loc;
  mutable w_atomic : bool;
  mutable w_vc : Vc.t;
  mutable wv_tid : int;
  mutable wv_clk : int;
      (* full writer clock at the last write, [w_vc] raised to the epoch
         [wv_clk@wv_tid]; only maintained for bases spin edges can
         source from (sync bases), [Vc.bottom] and [0@0] otherwise *)
  (* Read state: a single inlined epoch in the common same-thread case
     ([rd_tid >= 0]), lazily promoted to a list on concurrent reads
     ([rd_tid = promoted]); [rd_tid = -1] means no reads since the last
     write. *)
  mutable rd_tid : int;
  mutable rd_clk : int;
  mutable rd_loc : loc;
  mutable rd_list : read list;
      (* promoted representation: latest read per thread, newest first —
         exactly the reference engine's [Shadow.cell.reads] order *)
  mutable atomic_vc : Vc.t;
  mutable a_tid : int;
  mutable a_clk : int;  (* the release clock is [atomic_vc] raised to [a_clk@a_tid] *)
  mutable primed : bool;
}

let none = -1
let promoted = -2

(* Rows and cells are kept from seed to seed; [stamp] tells this seed's
   cells from older ones, which are renewed on their first lookup.  The
   memory figure charges what a fresh table would hold: [n_rows] and
   [row_len] replay the growth a fresh table would have gone through
   this seed, whatever the kept arrays' capacity. *)
type t = {
  mutable stamp : int;
  mutable rows : cell array array;  (* outer index: interned base id *)
  mutable row_len : int array;  (* per base id: this seed's row length *)
  mutable n_rows : int;  (* this seed's outer length *)
  mutable row_slots : int;  (* total length of [rows]' rows *)
  mutable n_cells : int;
}

let no_loc = { lfunc = ""; lblk = ""; lidx = 0 }
let no_row : cell array = [||]
let first_rows = 16

let renew c =
  c.state <- Msm.virgin;
  c.lockset <- Ls.top;
  c.w_tid <- none;
  c.w_clk <- 0;
  c.w_loc <- no_loc;
  c.w_atomic <- false;
  c.w_vc <- Vc.bottom;
  c.wv_tid <- 0;
  c.wv_clk <- 0;
  c.rd_tid <- none;
  c.rd_clk <- 0;
  c.rd_loc <- no_loc;
  c.rd_list <- [];
  c.atomic_vc <- Vc.bottom;
  c.a_tid <- 0;
  c.a_clk <- 0;
  c.primed <- false

let blank () =
  {
    stamp = -1;
    state = Msm.virgin;
    lockset = Ls.top;
    w_tid = none;
    w_clk = 0;
    w_loc = no_loc;
    w_atomic = false;
    w_vc = Vc.bottom;
    wv_tid = 0;
    wv_clk = 0;
    rd_tid = none;
    rd_clk = 0;
    rd_loc = no_loc;
    rd_list = [];
    atomic_vc = Vc.bottom;
    a_tid = 0;
    a_clk = 0;
    primed = false;
  }

(* Fills the unused slots of a row; never handed out, never stamped. *)
let dummy = blank ()

let create () =
  {
    stamp = 0;
    rows = Array.make first_rows no_row;
    row_len = Array.make first_rows 0;
    n_rows = first_rows;
    row_slots = 0;
    n_cells = 0;
  }

let reset t =
  t.stamp <- t.stamp + 1;
  Array.fill t.row_len 0 (Array.length t.row_len) 0;
  t.n_rows <- first_rows;
  t.n_cells <- 0

let footprint t = Array.length t.rows + t.row_slots
let grown len i = max (2 * len) (i + 1)

let grow_outer t base_id =
  t.n_rows <- grown t.n_rows base_id;
  if t.n_rows > Array.length t.rows then begin
    t.rows <- Kept.grow_to t.rows t.n_rows no_row;
    t.row_len <- Kept.grow_to t.row_len t.n_rows 0
  end

let grow_row t base_id idx =
  let row = t.rows.(base_id) in
  let row' = Kept.grow_to row (idx + 1) dummy in
  t.rows.(base_id) <- row';
  t.row_slots <- t.row_slots + Array.length row' - Array.length row;
  row'

(* The lookups stay bounds-checked, so an event breaking the access
   contract (a negative id or index) raises [Invalid_argument] instead
   of reading outside a row. *)
let cell t ~base_id ~idx =
  if base_id >= t.n_rows then grow_outer t base_id;
  let len = t.row_len.(base_id) in
  if idx >= len then t.row_len.(base_id) <- grown len idx;
  let row = t.rows.(base_id) in
  let row = if idx < Array.length row then row else grow_row t base_id idx in
  let c = row.(idx) in
  if c.stamp = t.stamp then c
  else begin
    let c =
      if c == dummy then begin
        let c = blank () in
        row.(idx) <- c;
        c
      end
      else begin
        renew c;
        c
      end
    in
    c.stamp <- t.stamp;
    t.n_cells <- t.n_cells + 1;
    c
  end

let rec mem_tid tid = function
  | [] -> false
  | r :: rest -> r.r_tid = tid || mem_tid tid rest

(* Record a read access with the reference engine's replacement
   discipline: the accessor's previous entry is dropped, everyone else's
   is kept, newest first. *)
let record_read c ~tid ~clk ~loc =
  if c.rd_tid = tid then begin
    c.rd_clk <- clk;
    c.rd_loc <- loc
  end
  else if c.rd_tid = none then begin
    c.rd_tid <- tid;
    c.rd_clk <- clk;
    c.rd_loc <- loc
  end
  else if c.rd_tid >= 0 then begin
    (* second concurrent reader: promote the inlined epoch to a list *)
    c.rd_list <-
      [
        { r_tid = tid; r_clk = clk; r_loc = loc };
        { r_tid = c.rd_tid; r_clk = c.rd_clk; r_loc = c.rd_loc };
      ];
    c.rd_tid <- promoted
  end
  else begin
    (* Promoted list.  Same contents and order as prepend + filter, but
       share structure where the filter would copy unchanged cells: no
       old entry for [tid] → cons onto the existing list; old entry at
       the head (a repeat reader racing the same cell) → replace it. *)
    let nr = { r_tid = tid; r_clk = clk; r_loc = loc } in
    match c.rd_list with
    | r0 :: rest when r0.r_tid = tid -> c.rd_list <- nr :: rest
    | l ->
        c.rd_list <-
          (if mem_tid tid l then
             nr :: List.filter (fun r -> r.r_tid <> tid) l
           else nr :: l)
  end

(* A write demotes the read state back to the empty epoch. *)
let clear_reads c =
  c.rd_tid <- none;
  c.rd_list <- []

let n_cells t = t.n_cells

let cell_words c =
  16
  + Vc.size_words_raised c.w_vc c.wv_tid c.wv_clk
  + Vc.size_words_raised c.atomic_vc c.a_tid c.a_clk
  + (6 * List.length c.rd_list)

let size_words t =
  let acc = ref 0 in
  for b = 0 to t.n_rows - 1 do
    let len = t.row_len.(b) in
    acc := !acc + 1 + len;
    let row = t.rows.(b) in
    for i = 0 to min len (Array.length row) - 1 do
      let c = row.(i) in
      if c.stamp = t.stamp then acc := !acc + cell_words c
    done
  done;
  !acc
