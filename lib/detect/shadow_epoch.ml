open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock

type read = { r_tid : int; r_clk : int; r_loc : loc }

type cell = {
  mutable state : Msm.state;
  mutable lockset : Lockset.t;
  (* Last-write epoch, fields inlined so a write allocates nothing.
     [w_tid = -1] means the cell was never written. *)
  mutable w_tid : int;
  mutable w_clk : int;
  mutable w_loc : loc;
  mutable w_atomic : bool;
  mutable w_vc : Vc.t;
      (* full writer clock at the last write; only maintained for bases
         spin edges can source from (sync bases), [Vc.bottom] otherwise *)
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
  mutable primed : bool;
}

let none = -1
let promoted = -2

type t = {
  mutable rows : cell option array array; (* outer index: interned base id *)
  mutable n_cells : int;
}

let no_loc = { lfunc = ""; lblk = ""; lidx = 0 }
let no_row : cell option array = [||]

let create () = { rows = Array.make 16 no_row; n_cells = 0 }

let fresh () =
  {
    state = Msm.Virgin;
    lockset = Lockset.top;
    w_tid = none;
    w_clk = 0;
    w_loc = no_loc;
    w_atomic = false;
    w_vc = Vc.bottom;
    rd_tid = none;
    rd_clk = 0;
    rd_loc = no_loc;
    rd_list = [];
    atomic_vc = Vc.bottom;
    primed = false;
  }

(* Rows grow on demand; the lookups stay bounds-checked, so an event
   breaking the access contract (a negative id or index) raises
   [Invalid_argument] instead of reading outside a row. *)
let cell t ~base_id ~idx =
  if base_id >= Array.length t.rows then begin
    let rows = Array.make (max (2 * Array.length t.rows) (base_id + 1)) no_row in
    Array.blit t.rows 0 rows 0 (Array.length t.rows);
    t.rows <- rows
  end;
  let row = t.rows.(base_id) in
  let row =
    if idx < Array.length row then row
    else begin
      let row' = Array.make (max (2 * Array.length row) (idx + 1)) None in
      Array.blit row 0 row' 0 (Array.length row);
      t.rows.(base_id) <- row';
      row'
    end
  in
  match row.(idx) with
  | Some c -> c
  | None ->
      let c = fresh () in
      row.(idx) <- Some c;
      t.n_cells <- t.n_cells + 1;
      c

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
  + Vc.size_words c.w_vc + Vc.size_words c.atomic_vc
  + (6 * List.length c.rd_list)

let size_words t =
  let acc = ref 0 in
  Array.iter
    (fun row ->
      acc := !acc + 1 + Array.length row;
      Array.iter
        (function Some c -> acc := !acc + cell_words c | None -> ())
        row)
    t.rows;
  !acc
