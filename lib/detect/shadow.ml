open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock

type access = {
  a_tid : int;
  a_clk : int;
  a_loc : loc;
  a_write : bool;
  a_atomic : bool;
}

type cell = {
  mutable state : Msm.state;
  mutable lockset : Lockset.t;
  mutable last_write : access option;
  mutable write_vc : Vc.t;
  mutable reads : access list;
  mutable atomic_vc : Vc.t;
  mutable primed : bool;
}

type t = (string * int, cell) Hashtbl.t

let create () : t = Hashtbl.create 256

let fresh () =
  {
    state = Msm.Virgin;
    lockset = Lockset.top;
    last_write = None;
    write_vc = Vc.bottom;
    reads = [];
    atomic_vc = Vc.bottom;
    primed = false;
  }

let cell t key =
  match Hashtbl.find_opt t key with
  | Some c -> c
  | None ->
      let c = fresh () in
      Hashtbl.replace t key c;
      c

let size_words t =
  Hashtbl.fold
    (fun _ c acc ->
      acc + 10 (* the record and access option *)
      + Vc.size_words c.write_vc + Vc.size_words c.atomic_vc
      + (6 * List.length c.reads))
    t 0

let record_read c a =
  c.reads <- a :: List.filter (fun r -> r.a_tid <> a.a_tid) c.reads
