open Arde_tir.Types
module Event = Arde_runtime.Event
module Sync_ids = Arde_runtime.Sync_ids
module Kept = Arde_util.Kept

(* Growable int array — thread event lists are built in one pass. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 8 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then v.a <- Kept.grow_to v.a (v.n + 1) 0;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

type t = {
  (* per event, grown by doubling; only the first [n] slots are live *)
  mutable n : int;
  mutable tid : int array;  (* per event: thread *)
  mutable tpos : int array;  (* per event: position within its thread *)
  mutable req : int array;
      (* single required predecessor: the observed writer for reads,
         the target's exit for joins; -1 when none *)
  mutable multi : int list array;
      (* conservative sync requirements with several predecessors
         (signals before a wait return, arrivals of a barrier
         generation, posts before a semaphore acquire); [] mostly.
         Lists are shared suffix-free: consumers store the producer
         table's current head, so total extra memory is one pointer
         per consumer. *)
  mutable lock_key : int array;  (* per event: lock id for acquires, -1 *)
  mutable lock_rel : int array;
      (* per acquire: matching release event, -1 if never released;
         meaningless at other events *)
  threads : int array array;  (* per thread: event indices in order *)
  mutable nthreads : int;
  spawn_of : int array;  (* per thread: its Spawn_ev index, or -1 *)
  mutable closure_ws : ideal option;  (* created on first use *)
}

(* The closure's reusable workspace *)
and ideal = {
  tr : t;
  frontier : int array;  (* per thread: events of its prefix in the set *)
  touched : Vec.t;  (* threads whose frontier moved, for cheap reset *)
  work : Vec.t;  (* worklist of (thread, upto) pairs, interleaved *)
  lock_max : (int, int) Hashtbl.t;
      (* per lock: the latest in-set acquire.  Invariant: every other
         in-set acquire of the lock already has its release required. *)
}

(* ------------------------------------------------------------------ *)
(* The streaming indexer                                              *)

type 'a cell = {
  mutable base : string;
  mutable last_write : int;
  mutable stamp : int;
  data : 'a;
}

type 'a indexer = {
  fresh : string -> 'a;
  renew : string -> 'a -> unit;
  mutable stamp : int;  (* cells stamped otherwise are from an earlier seed *)
  mutable rows : 'a cell option array array;  (* by interned base id *)
  mutable row_slots : int;  (* total length of [rows]' rows *)
  tr : t;
  thr : Vec.t array;  (* per thread: its event indices *)
  exits : int array;
  multi_at : Vec.t;  (* events whose [multi] is set, for reset *)
  syncs : Sync_ids.t;  (* sync objects' dense ids *)
  mutable producers : int list array;
      (* per object id: its signals, posts or arrivals, latest first *)
  mutable pending_acq : int array;
      (* per (lock id, thread): the acquire awaiting its release, or -1 *)
}

let no_row = [||]

let indexer_sized ?(renew = fun _ _ -> ()) ~capacity fresh =
  let capacity = max 16 capacity in
  {
    fresh;
    renew;
    stamp = 0;
    rows = Array.make 16 no_row;
    row_slots = 0;
    tr =
      {
        n = 0;
        tid = Array.make capacity 0;
        tpos = Array.make capacity 0;
        req = Array.make capacity 0;
        multi = Array.make capacity [];
        lock_key = Array.make capacity 0;
        lock_rel = Array.make capacity 0;
        threads = Array.make max_threads [||];
        nthreads = 0;
        spawn_of = Array.make max_threads (-1);
        closure_ws = None;
      };
    thr = Array.init max_threads (fun _ -> Vec.create ());
    exits = Array.make max_threads (-1);
    multi_at = Vec.create ();
    syncs = Sync_ids.create ();
    producers = Array.make 16 [];
    pending_acq = Array.make (16 * max_threads) (-1);
  }

let indexer ?renew fresh = indexer_sized ?renew ~capacity:256 fresh
let length ix = ix.tr.n
let footprint ix =
  Array.length ix.tr.tid + ix.row_slots + Array.length ix.pending_acq
  + Array.length ix.producers + Sync_ids.footprint ix.syncs

(* Forget the last seed in place: every array keeps its capacity.
   Cells are renewed lazily, on their first lookup under the new stamp;
   of the per-event arrays only [multi] needs clearing, since [slot]
   writes the others' entries before anyone reads them. *)
let reset ix =
  let tr = ix.tr in
  ix.stamp <- ix.stamp + 1;
  for i = 0 to ix.multi_at.Vec.n - 1 do
    tr.multi.(ix.multi_at.Vec.a.(i)) <- []
  done;
  ix.multi_at.Vec.n <- 0;
  for t = 0 to tr.nthreads - 1 do
    ix.thr.(t).Vec.n <- 0
  done;
  tr.n <- 0;
  tr.nthreads <- 0;
  Array.fill tr.spawn_of 0 max_threads (-1);
  Array.fill ix.exits 0 max_threads (-1);
  Array.fill ix.producers 0 (Sync_ids.n_objects ix.syncs) [];
  Array.fill ix.pending_acq 0 (Sync_ids.n_locks ix.syncs * max_threads) (-1);
  Sync_ids.clear ix.syncs

(* Rows grow on demand; the lookups stay bounds-checked, so an event
   breaking the access contract (a negative id or index) raises
   [Invalid_argument] instead of reading outside a row. *)
let cell ix ~base_id ~base ~idx =
  if base_id >= Array.length ix.rows then
    ix.rows <- Kept.grow_to ix.rows (base_id + 1) no_row;
  let row = ix.rows.(base_id) in
  let row =
    if idx < Array.length row then row
    else begin
      let row' = Kept.grow_to row (idx + 1) None in
      ix.rows.(base_id) <- row';
      ix.row_slots <- ix.row_slots + Array.length row' - Array.length row;
      row'
    end
  in
  match row.(idx) with
  | Some c ->
      if c.stamp <> ix.stamp then begin
        c.base <- base;
        c.last_write <- -1;
        c.stamp <- ix.stamp;
        ix.renew base c.data
      end;
      c
  | None ->
      let c = { base; last_write = -1; stamp = ix.stamp; data = ix.fresh base } in
      row.(idx) <- Some c;
      c

let grow tr =
  let n = tr.n + 1 in
  tr.tid <- Kept.grow_to tr.tid n 0;
  tr.tpos <- Kept.grow_to tr.tpos n 0;
  tr.req <- Kept.grow_to tr.req n 0;
  tr.multi <- Kept.grow_to tr.multi n [];
  tr.lock_key <- Kept.grow_to tr.lock_key n 0;
  tr.lock_rel <- Kept.grow_to tr.lock_rel n 0

(* Give the next event its trace and thread positions; returns its
   index. *)
let slot ix t =
  let tr = ix.tr in
  let t = if t < 0 || t >= max_threads then 0 else t in
  let i = tr.n in
  if i = Array.length tr.tid then grow tr;
  let v = ix.thr.(t) in
  tr.tid.(i) <- t;
  tr.tpos.(i) <- v.Vec.n;
  Vec.push v i;
  tr.req.(i) <- -1;
  tr.lock_key.(i) <- -1;
  if t >= tr.nthreads then tr.nthreads <- t + 1;
  tr.n <- i + 1;
  i

let read ix ~tid c = ix.tr.req.(slot ix tid) <- c.last_write
let write ix ~tid c = c.last_write <- slot ix tid

(* The interned id of a sync event's object, its per-object state
   grown to cover a new one. *)
let sync_id ix ev =
  let id = Sync_ids.of_event ix.syncs ev in
  (match ev with
  | Event.Lock_acq _ | Event.Lock_rel _ ->
      let n = (id + 1) * max_threads in
      if n > Array.length ix.pending_acq then
        ix.pending_acq <- Kept.grow_to ix.pending_acq n (-1)
  | _ ->
      if id >= Array.length ix.producers then
        ix.producers <- Kept.grow_to ix.producers (id + 1) []);
  id

let need_all ix i l =
  if l <> [] then begin
    ix.tr.multi.(i) <- l;
    Vec.push ix.multi_at i
  end

let pending_at id t = (id * max_threads) + if t < 0 || t >= max_threads then 0 else t

let push ix ev =
  match ev with
  | Event.Read { tid; base; base_id; idx; _ } ->
      read ix ~tid (cell ix ~base_id ~base ~idx)
  | Event.Write { tid; base; base_id; idx; _ } ->
      write ix ~tid (cell ix ~base_id ~base ~idx)
  | _ -> (
      let i = slot ix (Event.tid_of ev) in
      let tr = ix.tr in
      match ev with
      | Event.Lock_acq { tid = lt; _ } ->
          let id = sync_id ix ev in
          tr.lock_key.(i) <- id;
          tr.lock_rel.(i) <- -1;
          ix.pending_acq.(pending_at id lt) <- i
      | Event.Lock_rel { tid = lt; _ } ->
          let k = pending_at (sync_id ix ev) lt in
          let a = ix.pending_acq.(k) in
          if a >= 0 then begin
            tr.lock_rel.(a) <- i;
            ix.pending_acq.(k) <- -1
          end
      | Event.Cv_signal _ | Event.Barrier_arrive _ | Event.Sem_post_ev _ ->
          let id = sync_id ix ev in
          ix.producers.(id) <- i :: ix.producers.(id)
      | Event.Cv_wait_return _ | Event.Barrier_pass _ | Event.Sem_acquire _ ->
          need_all ix i ix.producers.(sync_id ix ev)
      | Event.Spawn_ev { child; _ } ->
          if child >= 0 && child < max_threads then tr.spawn_of.(child) <- i
      | Event.Join_return { target; _ } ->
          if target >= 0 && target < max_threads && ix.exits.(target) >= 0
          then tr.req.(i) <- ix.exits.(target)
      | Event.Thread_exit { tid = et } ->
          if et >= 0 && et < max_threads then ix.exits.(et) <- i
      | Event.Read _ | Event.Write _ | Event.Cv_wait_begin _
      | Event.Thread_start _ | Event.Spin_enter _ | Event.Spin_exit _ ->
          ())

(* The per-event arrays are handed over as grown, not trimmed: every
   read of them is at an event index below [n]. *)
let finish ix =
  let tr = ix.tr in
  tr.nthreads <- max 1 tr.nthreads;
  for t = 0 to tr.nthreads - 1 do
    tr.threads.(t) <- ix.thr.(t).Vec.a
  done;
  tr

let build events =
  let ix = indexer_sized ~capacity:(Array.length events) (fun _ -> ()) in
  Array.iter (push ix) events;
  finish ix

(* ------------------------------------------------------------------ *)
(* Closure over per-thread ideals                                     *)

let ideal tr =
  match tr.closure_ws with
  | Some w -> w
  | None ->
      let w =
        {
          tr;
          frontier = Array.make max_threads 0;
          touched = Vec.create ();
          work = Vec.create ();
          lock_max = Hashtbl.create 8;
        }
      in
      tr.closure_ws <- Some w;
      w

type verdict = Concurrent | Ordered | Budget_exceeded

exception Infeasible
exception Out_of_budget

(* The fixpoint is an explicit worklist (a recursive formulation would
   recurse as deep as the longest requirement chain — trace-length in
   the worst case).  Each worklist entry raises one thread's frontier;
   every event is processed exactly once because the frontier is bumped
   before its window is walked. *)
let closure (w : ideal) ~e1 ~e2 ~budget =
  let tr = w.tr in
  (* reset the workspace *)
  for i = 0 to w.touched.Vec.n - 1 do
    w.frontier.(w.touched.Vec.a.(i)) <- 0
  done;
  w.touched.Vec.n <- 0;
  w.work.Vec.n <- 0;
  Hashtbl.reset w.lock_max;
  let t1 = tr.tid.(e1) and p1 = tr.tpos.(e1) in
  let t2 = tr.tid.(e2) and p2 = tr.tpos.(e2) in
  let steps = ref 0 in
  let want t p =
    if p > w.frontier.(t) then begin
      Vec.push w.work t;
      Vec.push w.work p
    end
  in
  let need i = want tr.tid.(i) (tr.tpos.(i) + 1) in
  let acquire i =
    let l = tr.lock_key.(i) in
    match Hashtbl.find_opt w.lock_max l with
    | None -> Hashtbl.replace w.lock_max l i
    | Some a ->
        let earlier, later = if a < i then (a, i) else (i, a) in
        Hashtbl.replace w.lock_max l later;
        (* the earlier critical section must close before the later one
           opens; a lock never released pins its holder's whole tail *)
        let r = tr.lock_rel.(earlier) in
        if r < 0 then raise_notrace Infeasible else need r
  in
  let raise_to t p =
    let cur = w.frontier.(t) in
    if p > cur then begin
      if (t = t1 && p > p1) || (t = t2 && p > p2) then raise_notrace Infeasible;
      if cur = 0 then begin
        Vec.push w.touched t;
        if tr.spawn_of.(t) >= 0 then need tr.spawn_of.(t)
      end;
      w.frontier.(t) <- p;
      let evs = tr.threads.(t) in
      for k = cur to p - 1 do
        let i = evs.(k) in
        incr steps;
        if !steps > budget then raise_notrace Out_of_budget;
        if tr.req.(i) >= 0 then need tr.req.(i);
        List.iter need tr.multi.(i);
        if tr.lock_key.(i) >= 0 then acquire i
      done
    end
  in
  let run () =
    (* the candidate events' own threads must have been spawned for the
       pair to be co-enabled, even when their prefixes are empty *)
    if tr.spawn_of.(t1) >= 0 then need tr.spawn_of.(t1);
    if tr.spawn_of.(t2) >= 0 then need tr.spawn_of.(t2);
    want t1 p1;
    want t2 p2;
    while w.work.Vec.n > 0 do
      let p = w.work.Vec.a.(w.work.Vec.n - 1) in
      let t = w.work.Vec.a.(w.work.Vec.n - 2) in
      w.work.Vec.n <- w.work.Vec.n - 2;
      raise_to t p
    done
  in
  match run () with
  | () -> (Concurrent, !steps)
  | exception Infeasible -> (Ordered, !steps)
  | exception Out_of_budget -> (Budget_exceeded, !steps)
