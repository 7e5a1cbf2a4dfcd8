open Arde_tir.Types
module Event = Arde_runtime.Event

(* Growable int array — thread event lists are built in one pass. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 8 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

type t = {
  tid : int array;  (* per event: thread *)
  tpos : int array;  (* per event: position within its thread *)
  threads : int array array;  (* per thread: event indices in order *)
  nthreads : int;
  req : int array;
      (* single required predecessor: the observed writer for reads,
         the target's exit for joins; -1 when none *)
  multi : int list array;
      (* conservative sync requirements with several predecessors
         (signals before a wait return, arrivals of a barrier
         generation, posts before a semaphore acquire); [] mostly.
         Lists are shared suffix-free: consumers store the producer
         table's current head, so total extra memory is one pointer
         per consumer. *)
  spawn_of : int array;  (* per thread: its Spawn_ev index, or -1 *)
  lock_key : int array;  (* per event: interned lock id for acquires, -1 *)
  lock_rel : int array;
      (* per acquire: matching release event, -1 if never released *)
}

(* ------------------------------------------------------------------ *)
(* The streaming indexer                                              *)

type 'a cell = { base : string; mutable last_write : int; data : 'a }

type 'a indexer = {
  fresh : string -> 'a;
  mutable rows : 'a cell option array array;  (* by interned base id *)
  spill : (string * int, 'a cell) Hashtbl.t;  (* events without a base id *)
  mutable n : int;
  (* per event, grown by doubling; only the first [n] slots are live *)
  mutable tid : int array;
  mutable tpos : int array;
  mutable req : int array;
  mutable lock_key : int array;
  (* sparse until [finish]: few events carry these *)
  mutable multi : (int * int list) list;
  mutable lock_rel : (int * int) list;
  thr : Vec.t array;  (* per thread: its event indices *)
  mutable nthreads : int;
  spawn_of : int array;
  exits : int array;
  (* accumulated producer lists *)
  cv_signals : (string * int, int list) Hashtbl.t;
  barrier_arrives : (string * int * int, int list) Hashtbl.t;
  sem_posts : (string * int, int list) Hashtbl.t;
  (* native locks: interned (base, idx) keys and per-(tid, lock)
     pending acquire *)
  lock_ids : (string * int, int) Hashtbl.t;
  pending_acq : (int * int, int) Hashtbl.t;
}

let no_row = [||]

let indexer_sized ~capacity fresh =
  let capacity = max 16 capacity in
  {
    fresh;
    rows = Array.make 16 no_row;
    spill = Hashtbl.create 16;
    n = 0;
    tid = Array.make capacity 0;
    tpos = Array.make capacity 0;
    req = Array.make capacity 0;
    lock_key = Array.make capacity 0;
    multi = [];
    lock_rel = [];
    thr = Array.init max_threads (fun _ -> Vec.create ());
    nthreads = 0;
    spawn_of = Array.make max_threads (-1);
    exits = Array.make max_threads (-1);
    cv_signals = Hashtbl.create 8;
    barrier_arrives = Hashtbl.create 8;
    sem_posts = Hashtbl.create 8;
    lock_ids = Hashtbl.create 8;
    pending_acq = Hashtbl.create 8;
  }

let indexer fresh = indexer_sized ~capacity:256 fresh
let length ix = ix.n

let fresh_cell ix base =
  { base; last_write = -1; data = ix.fresh base }

let spill_cell ix base idx =
  match Hashtbl.find_opt ix.spill (base, idx) with
  | Some c -> c
  | None ->
      let c = fresh_cell ix base in
      Hashtbl.replace ix.spill (base, idx) c;
      c

let cell ix ~base_id ~base ~idx =
  if base_id < 0 || idx < 0 then spill_cell ix base idx
  else begin
    if base_id >= Array.length ix.rows then begin
      let rows =
        Array.make (max (2 * Array.length ix.rows) (base_id + 1)) no_row
      in
      Array.blit ix.rows 0 rows 0 (Array.length ix.rows);
      ix.rows <- rows
    end;
    let row = ix.rows.(base_id) in
    let row =
      if idx < Array.length row then row
      else begin
        let row' = Array.make (max (2 * Array.length row) (idx + 1)) None in
        Array.blit row 0 row' 0 (Array.length row);
        ix.rows.(base_id) <- row';
        row'
      end
    in
    match Array.unsafe_get row idx with
    | Some c -> c
    | None ->
        let c = fresh_cell ix base in
        row.(idx) <- Some c;
        c
  end

let grow ix =
  let cap = 2 * Array.length ix.tid in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 ix.n;
    b
  in
  ix.tid <- g ix.tid;
  ix.tpos <- g ix.tpos;
  ix.req <- g ix.req;
  ix.lock_key <- g ix.lock_key

(* Give the next event its trace and thread positions; returns its
   index. *)
let slot ix t =
  let t = if t < 0 || t >= max_threads then 0 else t in
  let i = ix.n in
  if i = Array.length ix.tid then grow ix;
  let v = ix.thr.(t) in
  ix.tid.(i) <- t;
  ix.tpos.(i) <- v.Vec.n;
  Vec.push v i;
  ix.req.(i) <- -1;
  ix.lock_key.(i) <- -1;
  if t >= ix.nthreads then ix.nthreads <- t + 1;
  ix.n <- i + 1;
  i

let read ix ~tid c = ix.req.(slot ix tid) <- c.last_write
let write ix ~tid c = c.last_write <- slot ix tid

let lock_id ix key =
  match Hashtbl.find_opt ix.lock_ids key with
  | Some id -> id
  | None ->
      let id = Hashtbl.length ix.lock_ids in
      Hashtbl.replace ix.lock_ids key id;
      id

let prior tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)
let need_all ix i l = if l <> [] then ix.multi <- (i, l) :: ix.multi

let push ix ev =
  match ev with
  | Event.Read { tid; base; base_id; idx; _ } ->
      read ix ~tid (cell ix ~base_id ~base ~idx)
  | Event.Write { tid; base; base_id; idx; _ } ->
      write ix ~tid (cell ix ~base_id ~base ~idx)
  | _ -> (
      let i = slot ix (Event.tid_of ev) in
      match ev with
      | Event.Lock_acq { tid = lt; base; idx; _ } ->
          let id = lock_id ix (base, idx) in
          ix.lock_key.(i) <- id;
          Hashtbl.replace ix.pending_acq (lt, id) i
      | Event.Lock_rel { tid = lt; base; idx; _ } -> (
          let id = lock_id ix (base, idx) in
          match Hashtbl.find_opt ix.pending_acq (lt, id) with
          | Some a ->
              ix.lock_rel <- (a, i) :: ix.lock_rel;
              Hashtbl.remove ix.pending_acq (lt, id)
          | None -> ())
      | Event.Cv_signal { base; idx; _ } ->
          Hashtbl.replace ix.cv_signals (base, idx)
            (i :: prior ix.cv_signals (base, idx))
      | Event.Cv_wait_return { base; idx; _ } ->
          need_all ix i (prior ix.cv_signals (base, idx))
      | Event.Barrier_arrive { base; idx; generation; _ } ->
          Hashtbl.replace ix.barrier_arrives
            (base, idx, generation)
            (i :: prior ix.barrier_arrives (base, idx, generation))
      | Event.Barrier_pass { base; idx; generation; _ } ->
          need_all ix i (prior ix.barrier_arrives (base, idx, generation))
      | Event.Sem_post_ev { base; idx; _ } ->
          Hashtbl.replace ix.sem_posts (base, idx)
            (i :: prior ix.sem_posts (base, idx))
      | Event.Sem_acquire { base; idx; _ } ->
          need_all ix i (prior ix.sem_posts (base, idx))
      | Event.Spawn_ev { child; _ } ->
          if child >= 0 && child < max_threads then ix.spawn_of.(child) <- i
      | Event.Join_return { target; _ } ->
          if target >= 0 && target < max_threads && ix.exits.(target) >= 0
          then ix.req.(i) <- ix.exits.(target)
      | Event.Thread_exit { tid = et } ->
          if et >= 0 && et < max_threads then ix.exits.(et) <- i
      | Event.Read _ | Event.Write _ | Event.Cv_wait_begin _
      | Event.Thread_start _ | Event.Spin_enter _ | Event.Spin_exit _ ->
          ())

(* The per-event arrays are handed over as grown, not trimmed: every
   read of them is at an event index below [n]. *)
let finish ix =
  let n = ix.n in
  let multi = Array.make n [] in
  List.iter (fun (i, l) -> multi.(i) <- l) ix.multi;
  let lock_rel = Array.make n (-1) in
  List.iter (fun (a, r) -> lock_rel.(a) <- r) ix.lock_rel;
  let nthreads = max 1 ix.nthreads in
  {
    tid = ix.tid;
    tpos = ix.tpos;
    threads = Array.init nthreads (fun t -> ix.thr.(t).Vec.a);
    nthreads;
    req = ix.req;
    multi;
    spawn_of = Array.sub ix.spawn_of 0 nthreads;
    lock_key = ix.lock_key;
    lock_rel;
  }

let build events =
  let ix = indexer_sized ~capacity:(Array.length events) (fun _ -> ()) in
  Array.iter (push ix) events;
  finish ix

(* ------------------------------------------------------------------ *)
(* Closure over per-thread ideals                                     *)

type ideal = {
  tr : t;
  frontier : int array;  (* per thread: events of its prefix in the set *)
  touched : Vec.t;  (* threads whose frontier moved, for cheap reset *)
  work : Vec.t;  (* worklist of (thread, upto) pairs, interleaved *)
  lock_max : (int, int) Hashtbl.t;
      (* per lock: the latest in-set acquire.  Invariant: every other
         in-set acquire of the lock already has its release required. *)
}

let ideal tr =
  {
    tr;
    frontier = Array.make tr.nthreads 0;
    touched = Vec.create ();
    work = Vec.create ();
    lock_max = Hashtbl.create 8;
  }

type verdict = Concurrent | Ordered | Budget_exceeded

exception Infeasible
exception Out_of_budget

(* The fixpoint is an explicit worklist (a recursive formulation would
   recurse as deep as the longest requirement chain — trace-length in
   the worst case).  Each worklist entry raises one thread's frontier;
   every event is processed exactly once because the frontier is bumped
   before its window is walked. *)
let closure w ~e1 ~e2 ~budget =
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
        if t < Array.length tr.spawn_of && tr.spawn_of.(t) >= 0 then
          need tr.spawn_of.(t)
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
    if t1 < Array.length tr.spawn_of && tr.spawn_of.(t1) >= 0 then
      need tr.spawn_of.(t1);
    if t2 < Array.length tr.spawn_of && tr.spawn_of.(t2) >= 0 then
      need tr.spawn_of.(t2);
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
