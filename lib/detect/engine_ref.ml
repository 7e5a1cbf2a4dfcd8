open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock
module Instrument = Arde_cfg.Instrument
module Event = Arde_runtime.Event

type t = {
  cfg : Config.t;
  instrument : Instrument.t option;
  cv_mutexes : (string, unit) Hashtbl.t;
      (* mutexes associated with a condition variable: Helgrind+'s CV
         pattern handling draws lock-order edges for these even in hybrid
         mode, which keeps gate-under-mutex fast paths quiet *)
  inferred_locks : (string, unit) Hashtbl.t;
      (* statically inferred lock words (the future-work mode): their
         atomic 0->1 / ->0 transitions drive the lockset *)
  vcs : Vc.t array; (* per-thread clocks *)
  exit_vcs : Vc.t array; (* clocks captured at thread exit, for join *)
  held : Lockset.Held.h;
  shadow : Shadow.t;
  mutex_vc : (string * int, Vc.t) Hashtbl.t;
  cv_vc : (string * int, Vc.t) Hashtbl.t;
  sem_vc : (string * int, Vc.t) Hashtbl.t;
  barrier_vc : (string * int * int, Vc.t) Hashtbl.t;
  spin_acc : (int, (string * int, Vc.t) Hashtbl.t) Hashtbl.t;
  report : Report.t;
  mutable spin_edges : int;
}

let create ?(cv_mutexes = []) ?(inferred_locks = []) ?(threads = max_threads)
    cfg ~instrument =
  let cvm = Hashtbl.create 4 in
  List.iter (fun b -> Hashtbl.replace cvm b ()) cv_mutexes;
  let inf = Hashtbl.create 4 in
  List.iter (fun b -> Hashtbl.replace inf b ()) inferred_locks;
  let cap_threads = max threads max_threads in
  {
    cfg;
    instrument;
    cv_mutexes = cvm;
    inferred_locks = inf;
    vcs = Array.make cap_threads Vc.bottom;
    exit_vcs = Array.make cap_threads Vc.bottom;
    held = Lockset.Held.create ();
    shadow = Shadow.create ();
    mutex_vc = Hashtbl.create 8;
    cv_vc = Hashtbl.create 8;
    sem_vc = Hashtbl.create 8;
    barrier_vc = Hashtbl.create 8;
    spin_acc = Hashtbl.create 8;
    report = Report.create ~cap:cfg.Config.cap ();
    spin_edges = 0;
  }

let report t = t.report
let n_spin_edges t = t.spin_edges

let mode t = t.cfg.Config.mode
let lib_sync t = Config.lib_sync (mode t)

(* Is a lockset being maintained (from native events or inferred locks)? *)
let lockset_active t =
  Config.use_lockset (mode t)
  || (Config.infer_locks (mode t) && Hashtbl.length t.inferred_locks > 0)

let tick t tid = t.vcs.(tid) <- Vc.inc t.vcs.(tid) tid
let acquire_clock t tid c = t.vcs.(tid) <- Vc.join t.vcs.(tid) c

let table_join tbl key c =
  let cur = Option.value ~default:Vc.bottom (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (Vc.join cur c)

let table_get tbl key =
  Option.value ~default:Vc.bottom (Hashtbl.find_opt tbl key)

(* Is the base a spin-condition variable (treated as synchronization)? *)
let suppressed t base =
  match t.instrument with
  | Some inst -> Instrument.is_sync_base inst base
  | None -> false

(* [prev] happened-before the current state of thread [tid]? *)
let ordered t tid (prev : Shadow.access) =
  prev.a_tid = tid || Vc.get t.vcs.(tid) prev.a_tid >= prev.a_clk

let conflicting_prevs t tid ~write (cell : Shadow.cell) =
  let writes = Option.to_list cell.last_write in
  let prevs = if write then writes @ cell.reads else writes in
  List.filter (fun p -> not (ordered t tid p)) prevs

(* Report decision for one plain access; returns whether anything was
   recorded.  The hybrid rule needs shared-modified + empty lockset +
   concurrency; DRD needs concurrency alone. *)
let check_access t ~tid ~base ~idx ~loc ~write (cell : Shadow.cell) =
  let concurrent = conflicting_prevs t tid ~write cell in
  let all_ordered = concurrent = [] in
  let entering_shared =
    match cell.state with
    | Msm.Virgin | Msm.Exclusive _ -> true
    | Msm.Shared_read | Msm.Shared_modified -> false
  in
  let new_state = Msm.transition cell.state ~tid ~write ~ordered:all_ordered in
  (* Eraser refinement: the candidate lockset only starts narrowing once
     the cell is genuinely shared — the first-owner phase is exempt.  This
     is what keeps initialize-then-publish patterns quiet, at the price of
     missing races whose two sides are single accesses under different
     locks (the state machine trade-off the paper describes). *)
  (match new_state with
  | Msm.Shared_read | Msm.Shared_modified when lockset_active t ->
      let held_now = Lockset.Held.current t.held tid in
      cell.lockset <-
        (if entering_shared then held_now
         else Lockset.inter cell.lockset held_now)
  | Msm.Virgin | Msm.Exclusive _ | Msm.Shared_read | Msm.Shared_modified -> ());
  cell.state <- new_state;
  let offending =
    match mode t with
    | Config.Drd ->
        (* Pure happens-before: every concurrent conflicting pair. *)
        concurrent
    | Config.Helgrind_lib | Config.Helgrind_spin _ | Config.Nolib_spin _
    | Config.Nolib_spin_locks _ ->
        (* Hybrid rule.  Without library knowledge the candidate lockset
           degenerates to empty — unless lock words were statically
           inferred (the future-work mode) — and only the state machine
           plus happens-before remain: the paper's "universal
           (happens-before) detector". *)
        let lockset_empty =
          if lockset_active t then Lockset.is_empty cell.lockset else true
        in
        if new_state = Msm.Shared_modified && lockset_empty then concurrent
        else []
  in
  let offending =
    match (t.cfg.Config.sensitivity, offending) with
    | Msm.Short_running, o -> o
    | Msm.Long_running, [] -> []
    | Msm.Long_running, o ->
        if cell.primed then o
        else begin
          cell.primed <- true;
          []
        end
  in
  List.iter
    (fun (p : Shadow.access) ->
      Report.add t.report
        {
          Report.r_base = base;
          r_idx = idx;
          r_first_tid = p.a_tid;
          r_first_loc = p.a_loc;
          r_first_write = p.a_write;
          r_second_tid = tid;
          r_second_loc = loc;
          r_second_write = write;
          r_predicted = false;
        })
    offending

let spin_record t ~tid ~key spin =
  List.iter
    (fun (_loop, ctx) ->
      match Hashtbl.find_opt t.spin_acc ctx with
      | None -> () (* context of another thread or already closed *)
      | Some acc ->
          let cell = Shadow.cell t.shadow key in
          (match cell.last_write with
          | Some w when w.a_tid <> tid ->
              Hashtbl.replace acc key cell.write_vc
          | Some _ | None -> ()))
    spin

(* Atomic release/acquire chains are only drawn by the spin-enhanced
   configurations: marking lock-prefixed read-modify-writes as
   synchronization accesses is the natural companion of marking spin
   condition variables (and is needed so a lowered mutex whose CAS
   succeeds without re-spinning still synchronizes).  The 2010 baselines
   (plain hybrid, DRD) treated atomics as ordinary accesses. *)
let atomics_sync t = Config.spin_k (mode t) <> None

let spin_active t = Config.spin_k (mode t) <> None

let on_read t ~tid ~base ~idx ~loc ~kind ~spin =
  let key = (base, idx) in
  if spin <> [] && spin_active t then spin_record t ~tid ~key spin;
  let cell = Shadow.cell t.shadow key in
  match kind with
  | Event.Atomic ->
      (* Atomic load: acquire the cell's release chain; never racy. *)
      if atomics_sync t then acquire_clock t tid cell.atomic_vc
  | Event.Plain ->
      if not (suppressed t base) then
        check_access t ~tid ~base ~idx ~loc ~write:false cell;
      let a =
        {
          Shadow.a_tid = tid;
          a_clk = Vc.get t.vcs.(tid) tid;
          a_loc = loc;
          a_write = false;
          a_atomic = false;
        }
      in
      Shadow.record_read cell a

let on_write t ~tid ~base ~idx ~loc ~kind ~value =
  let key = (base, idx) in
  let cell = Shadow.cell t.shadow key in
  (match kind with
  | Event.Atomic ->
      (* Inferred lock words: the 0->1 transition is an acquisition, a
         write of 0 the release. *)
      if Config.infer_locks (mode t) && Hashtbl.mem t.inferred_locks base then begin
        if value = 1 then Lockset.Held.acquire t.held tid key
        else if value = 0 then Lockset.Held.release t.held tid key
      end;
      (* Release: publish the writer's clock on the cell's atomic chain. *)
      if atomics_sync t then begin
        acquire_clock t tid cell.atomic_vc;
        cell.atomic_vc <- t.vcs.(tid)
      end
  | Event.Plain ->
      if not (suppressed t base) then
        check_access t ~tid ~base ~idx ~loc ~write:true cell);
  cell.write_vc <- t.vcs.(tid);
  cell.last_write <-
    Some
      {
        Shadow.a_tid = tid;
        a_clk = Vc.get t.vcs.(tid) tid;
        a_loc = loc;
        a_write = true;
        a_atomic = kind = Event.Atomic;
      };
  cell.reads <- [];
  (* Tick so that the writer's post-write work is not covered by the
     release snapshot readers may acquire. *)
  if kind = Event.Atomic || suppressed t base then tick t tid

let observer t (ev : Event.t) =
  match ev with
  | Event.Thread_start { tid } ->
      if Vc.is_bottom t.vcs.(tid) then t.vcs.(tid) <- Vc.inc Vc.bottom tid
  | Event.Spawn_ev { parent; child; _ } ->
      t.vcs.(child) <- Vc.inc (Vc.join t.vcs.(child) t.vcs.(parent)) child;
      tick t parent
  | Event.Thread_exit { tid } -> t.exit_vcs.(tid) <- t.vcs.(tid)
  | Event.Join_return { tid; target; _ } ->
      if lib_sync t then acquire_clock t tid t.exit_vcs.(target)
  | Event.Lock_acq { tid; base; idx; _ } ->
      if Config.use_lockset (mode t) then
        Lockset.Held.acquire t.held tid (base, idx);
      if Config.lock_hb (mode t) || (lib_sync t && Hashtbl.mem t.cv_mutexes base)
      then acquire_clock t tid (table_get t.mutex_vc (base, idx))
  | Event.Lock_rel { tid; base; idx; _ } ->
      if Config.use_lockset (mode t) then
        Lockset.Held.release t.held tid (base, idx);
      if Config.lock_hb (mode t) || (lib_sync t && Hashtbl.mem t.cv_mutexes base)
      then begin
        Hashtbl.replace t.mutex_vc (base, idx) t.vcs.(tid);
        tick t tid
      end
  | Event.Cv_signal { tid; base; idx; _ } ->
      if lib_sync t then begin
        table_join t.cv_vc (base, idx) t.vcs.(tid);
        tick t tid
      end
  | Event.Cv_wait_begin _ -> () (* the CV checker's event, not ours *)
  | Event.Cv_wait_return { tid; base; idx; _ } ->
      if lib_sync t then acquire_clock t tid (table_get t.cv_vc (base, idx))
  | Event.Barrier_arrive { tid; base; idx; generation; _ } ->
      if lib_sync t then begin
        table_join t.barrier_vc (base, idx, generation) t.vcs.(tid);
        tick t tid
      end
  | Event.Barrier_pass { tid; base; idx; generation; _ } ->
      if lib_sync t then begin
        acquire_clock t tid (table_get t.barrier_vc (base, idx, generation));
        Hashtbl.remove t.barrier_vc (base, idx, generation - 2)
      end
  | Event.Sem_post_ev { tid; base; idx; _ } ->
      if lib_sync t then begin
        table_join t.sem_vc (base, idx) t.vcs.(tid);
        tick t tid
      end
  | Event.Sem_acquire { tid; base; idx; _ } ->
      if lib_sync t then acquire_clock t tid (table_get t.sem_vc (base, idx))
  | Event.Spin_enter { ctx; _ } ->
      if spin_active t then Hashtbl.replace t.spin_acc ctx (Hashtbl.create 4)
  | Event.Spin_exit { tid; ctx; _ } -> (
      match Hashtbl.find_opt t.spin_acc ctx with
      | None -> ()
      | Some acc ->
          Hashtbl.iter
            (fun _key wvc ->
              t.spin_edges <- t.spin_edges + 1;
              acquire_clock t tid wvc)
            acc;
          Hashtbl.remove t.spin_acc ctx)
  | Event.Read { tid; base; idx; loc; kind; spin; _ } ->
      on_read t ~tid ~base ~idx ~loc ~kind ~spin
  | Event.Write { tid; base; idx; loc; kind; value; _ } ->
      on_write t ~tid ~base ~idx ~loc ~kind ~value

let memory_words t =
  let clock_words =
    Array.fold_left (fun acc c -> acc + Vc.size_words c) 0 t.vcs
  in
  let table_words tbl =
    Hashtbl.fold (fun _ c acc -> acc + 4 + Vc.size_words c) tbl 0
  in
  clock_words + Shadow.size_words t.shadow + table_words t.mutex_vc
  + table_words t.cv_vc + table_words t.sem_vc
  + Hashtbl.fold (fun _ c acc -> acc + 5 + Vc.size_words c) t.barrier_vc 0
  (* Open spin contexts hold a clock snapshot per watched cell; they are
     live detector state like any other table. *)
  + Hashtbl.fold
      (fun _ acc_tbl acc -> acc + 2 + table_words acc_tbl)
      t.spin_acc 0
