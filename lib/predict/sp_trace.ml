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

let build (events : Event.t array) =
  let n = Array.length events in
  let tid = Array.make n 0 in
  let tpos = Array.make n 0 in
  let req = Array.make n (-1) in
  let multi = Array.make n [] in
  let lock_key = Array.make n (-1) in
  let lock_rel = Array.make n (-1) in
  let spawn_of = Array.make max_threads (-1) in
  let thr = Array.init max_threads (fun _ -> Vec.create ()) in
  let nthreads = ref 0 in
  (* last write per cell, for observation edges *)
  let last_write : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  (* accumulated producer lists *)
  let cv_signals : (string * int, int list) Hashtbl.t = Hashtbl.create 8 in
  let barrier_arrives : (string * int * int, int list) Hashtbl.t =
    Hashtbl.create 8
  in
  let sem_posts : (string * int, int list) Hashtbl.t = Hashtbl.create 8 in
  let exits = Array.make max_threads (-1) in
  (* native locks: interned (base, idx) keys and per-(tid, lock)
     pending acquire *)
  let lock_ids : (string * int, int) Hashtbl.t = Hashtbl.create 8 in
  let next_lock = ref 0 in
  let pending_acq : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  let lock_id key =
    match Hashtbl.find_opt lock_ids key with
    | Some id -> id
    | None ->
        let id = !next_lock in
        incr next_lock;
        Hashtbl.replace lock_ids key id;
        id
  in
  let prior tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  for i = 0 to n - 1 do
    let ev = events.(i) in
    let t = Event.tid_of ev in
    let t = if t < 0 || t >= max_threads then 0 else t in
    tid.(i) <- t;
    tpos.(i) <- (thr.(t)).Vec.n;
    Vec.push thr.(t) i;
    if t >= !nthreads then nthreads := t + 1;
    match ev with
    | Event.Read { base; idx; _ } -> (
        match Hashtbl.find_opt last_write (base, idx) with
        | Some w -> req.(i) <- w
        | None -> ())
    | Event.Write { base; idx; _ } -> Hashtbl.replace last_write (base, idx) i
    | Event.Lock_acq { tid = lt; base; idx; _ } ->
        let id = lock_id (base, idx) in
        lock_key.(i) <- id;
        Hashtbl.replace pending_acq (lt, id) i
    | Event.Lock_rel { tid = lt; base; idx; _ } -> (
        let id = lock_id (base, idx) in
        match Hashtbl.find_opt pending_acq (lt, id) with
        | Some a ->
            lock_rel.(a) <- i;
            Hashtbl.remove pending_acq (lt, id)
        | None -> ())
    | Event.Cv_signal { base; idx; _ } ->
        Hashtbl.replace cv_signals (base, idx) (i :: prior cv_signals (base, idx))
    | Event.Cv_wait_return { base; idx; _ } ->
        multi.(i) <- prior cv_signals (base, idx)
    | Event.Barrier_arrive { base; idx; generation; _ } ->
        Hashtbl.replace barrier_arrives
          (base, idx, generation)
          (i :: prior barrier_arrives (base, idx, generation))
    | Event.Barrier_pass { base; idx; generation; _ } ->
        multi.(i) <- prior barrier_arrives (base, idx, generation)
    | Event.Sem_post_ev { base; idx; _ } ->
        Hashtbl.replace sem_posts (base, idx) (i :: prior sem_posts (base, idx))
    | Event.Sem_acquire { base; idx; _ } ->
        multi.(i) <- prior sem_posts (base, idx)
    | Event.Spawn_ev { child; _ } ->
        if child >= 0 && child < max_threads then spawn_of.(child) <- i
    | Event.Join_return { target; _ } ->
        if target >= 0 && target < max_threads && exits.(target) >= 0 then
          req.(i) <- exits.(target)
    | Event.Thread_exit { tid = et } ->
        if et >= 0 && et < max_threads then exits.(et) <- i
    | Event.Cv_wait_begin _ | Event.Thread_start _ | Event.Spin_enter _
    | Event.Spin_exit _ ->
        ()
  done;
  let nthreads = max 1 !nthreads in
  {
    tid;
    tpos;
    threads =
      Array.init nthreads (fun t ->
          Array.sub (thr.(t)).Vec.a 0 (thr.(t)).Vec.n);
    nthreads;
    req;
    multi;
    spawn_of = Array.sub spawn_of 0 nthreads;
    lock_key;
    lock_rel;
  }

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
