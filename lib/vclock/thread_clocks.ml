module Vc = Vector_clock

type t = {
  vcs : Vc.m array;
  snaps : Vc.t array;  (* per thread: its clock as of its last join... *)
  snap_ok : bool array;  (* ...valid until a join moves the clock *)
  exit_vcs : Vc.t array;
}

let create n =
  {
    vcs = Array.init n (fun tid -> Vc.make_mut ~owner:tid n);
    snaps = Array.make n Vc.bottom;
    snap_ok = Array.make n true; (* bottom snapshots a zero clock *)
    exit_vcs = Array.make n Vc.bottom;
  }

let clear b =
  let n = Array.length b.vcs in
  Array.iter Vc.mclear b.vcs;
  Array.fill b.snaps 0 n Vc.bottom;
  Array.fill b.snap_ok 0 n true;
  Array.fill b.exit_vcs 0 n Vc.bottom

let clocks b = b.vcs
let tick b t = Vc.mtick b.vcs.(t) t
let own b t = Vc.mget b.vcs.(t) t
let acquire b t c = if Vc.mjoin_changed b.vcs.(t) c then b.snap_ok.(t) <- false

let acquire_raised b t c u k =
  if Vc.mjoin_raise_changed b.vcs.(t) c u k then b.snap_ok.(t) <- false

let joined b t =
  if b.snap_ok.(t) then b.snaps.(t)
  else begin
    let s = Vc.snapshot b.vcs.(t) in
    b.snaps.(t) <- s;
    b.snap_ok.(t) <- true;
    s
  end

let snapshot b t =
  let s = joined b t in
  if Vc.get s t = own b t then s
  else begin
    let s = Vc.snapshot b.vcs.(t) in
    b.snaps.(t) <- s;
    s
  end

let spawn b ~parent ~child =
  Vc.mjoin_m b.vcs.(child) b.vcs.(parent);
  b.snap_ok.(child) <- false;
  tick b child;
  tick b parent

let exit b t = b.exit_vcs.(t) <- snapshot b t
let join_exit b t ~target = acquire b t b.exit_vcs.(target)
let size_words b = Array.fold_left (fun acc m -> acc + Vc.msize_words m) 0 b.vcs
