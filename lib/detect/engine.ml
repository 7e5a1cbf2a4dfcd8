open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock
module Instrument = Arde_cfg.Instrument
module Event = Arde_runtime.Event
module Sh = Shadow_epoch

(* The optimized engine.  Semantically a clone of {!Engine_ref} — the
   differential suite holds the two to byte-identical reports — but the
   per-event hot path allocates nothing:

   - per-thread clocks are mutable fixed-capacity arrays ([Vc.m]); ticks
     and joins mutate in place, and release operations share one lazily
     computed immutable snapshot per thread until the clock next changes
     (mirroring the reference engine's pointer sharing);
   - shadow cells live in flat rows indexed by the interned base id events
     carry, with last-write and single-reader state inlined as epochs
     ({!Shadow_epoch});
   - race checks are two passes over the inlined epochs: a scan deciding
     whether anything is concurrent, and — only when a warning fires — a
     second pass emitting reports in the reference order (previous write
     first, then reads, newest first). *)

type t = {
  cfg : Config.t;
  instrument : Instrument.t option;
  cv_mutexes : (string, unit) Hashtbl.t;
  inferred_locks : (string, unit) Hashtbl.t;
  (* mode predicates, resolved once at [create] so the per-event path
     never re-matches on the mode *)
  f_lib_sync : bool;
  f_use_lockset : bool;
  f_lock_hb : bool;
  f_infer_locks : bool;
  f_spin : bool; (* spin window active; also gates atomics-as-sync *)
  f_drd : bool;
  f_lockset_active : bool;
  vcs : Vc.m array; (* per-thread clocks, mutated in place *)
  snaps : Vc.t array; (* cached immutable snapshot per thread... *)
  snap_ok : bool array; (* ...valid until the thread's clock changes *)
  exit_vcs : Vc.t array;
  held : Lockset.Held.h;
  shadow : Sh.t;
  mutex_vc : (string * int, Vc.t) Hashtbl.t;
  cv_vc : (string * int, Vc.t) Hashtbl.t;
  sem_vc : (string * int, Vc.t) Hashtbl.t;
  barrier_vc : (string * int * int, Vc.t) Hashtbl.t;
  spin_acc : (int, (int * int, Vc.t) Hashtbl.t) Hashtbl.t;
      (* open spin contexts; inner tables keyed by (base id, idx) *)
  mutable sup_cache : int array;
      (* per base id: -1 unknown, 0 ordinary, 1 sync base (suppressed) *)
  keep_all_wvc : bool;
      (* no instrumentation to narrow by (hand-fed spin streams): keep the
         full writer clock on every cell so spin edges stay sourced *)
  report : Report.t;
  mutable spin_edges : int;
  (* memo of the last spin recording: a spinning read re-observing the
     same cell with the same writer clock re-stores an identical binding,
     so skip the table write (and its tuple key) entirely.  Cleared
     whenever a spin context opens or closes. *)
  mutable lsr_ctx : int;
  mutable lsr_base_id : int;
  mutable lsr_idx : int;
  mutable lsr_wvc : Vc.t;
}

let spin_active_cfg cfg = Config.spin_k cfg.Config.mode <> None

let cv_mutexes_of (p : program) =
  List.sort_uniq String.compare
    (List.concat_map
       (fun f ->
         List.concat_map
           (fun b ->
             List.filter_map
               (function Cond_wait (_, m) -> Some m.base | _ -> None)
               b.ins)
           f.blocks)
       p.funcs)

let create ?(cv_mutexes = []) ?(inferred_locks = []) ?(threads = max_threads)
    cfg ~instrument =
  let cvm = Hashtbl.create 4 in
  List.iter (fun b -> Hashtbl.replace cvm b ()) cv_mutexes;
  let inf = Hashtbl.create 4 in
  List.iter (fun b -> Hashtbl.replace inf b ()) inferred_locks;
  let cap_threads = max threads max_threads in
  let mode = cfg.Config.mode in
  {
    cfg;
    instrument;
    cv_mutexes = cvm;
    inferred_locks = inf;
    f_lib_sync = Config.lib_sync mode;
    f_use_lockset = Config.use_lockset mode;
    f_lock_hb = Config.lock_hb mode;
    f_infer_locks = Config.infer_locks mode;
    f_spin = Config.spin_k mode <> None;
    f_drd = (mode = Config.Drd);
    f_lockset_active =
      Config.use_lockset mode
      || (Config.infer_locks mode && Hashtbl.length inf > 0);
    vcs = Array.init cap_threads (fun tid -> Vc.make_mut ~owner:tid cap_threads);
    snaps = Array.make cap_threads Vc.bottom;
    snap_ok = Array.make cap_threads true; (* bottom is a valid snapshot *)
    exit_vcs = Array.make cap_threads Vc.bottom;
    held = Lockset.Held.create ();
    shadow = Sh.create ();
    mutex_vc = Hashtbl.create 8;
    cv_vc = Hashtbl.create 8;
    sem_vc = Hashtbl.create 8;
    barrier_vc = Hashtbl.create 8;
    spin_acc = Hashtbl.create 8;
    sup_cache = Array.make 16 (-1);
    keep_all_wvc = spin_active_cfg cfg && instrument = None;
    report = Report.create ~cap:cfg.Config.cap ();
    spin_edges = 0;
    lsr_ctx = -1;
    lsr_base_id = 0;
    lsr_idx = 0;
    lsr_wvc = Vc.bottom;
  }

let report t = t.report
let n_shadow_cells t = Sh.n_cells t.shadow
let n_spin_edges t = t.spin_edges

let lib_sync t = t.f_lib_sync

(* Clock plumbing.  [snap] is the only producer of stored clocks; its
   cache makes consecutive releases by an un-ticked thread share one
   immutable array, like the reference engine's pointer sharing.  A join
   that grows nothing leaves the cached snapshot valid, so re-acquiring
   an already-seen clock (spin loops hammering the same atomic) costs no
   allocation on the next release. *)
let tick t tid =
  Vc.mtick t.vcs.(tid) tid;
  t.snap_ok.(tid) <- false

let acquire_clock t tid c =
  if Vc.mjoin_changed t.vcs.(tid) c then t.snap_ok.(tid) <- false

let snap t tid =
  if t.snap_ok.(tid) then t.snaps.(tid)
  else begin
    let s = Vc.snapshot t.vcs.(tid) in
    t.snaps.(tid) <- s;
    t.snap_ok.(tid) <- true;
    s
  end

let table_join tbl key c =
  let cur = Option.value ~default:Vc.bottom (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (Vc.join cur c)

let table_get tbl key =
  Option.value ~default:Vc.bottom (Hashtbl.find_opt tbl key)

(* Is the base a spin-condition variable (treated as synchronization)?
   Same predicate as the reference engine, memoized per interned base id
   so the hot path skips the string set lookup. *)
let suppressed_uncached t base =
  match t.instrument with
  | Some inst -> Instrument.is_sync_base inst base
  | None -> false

let suppressed t ~base_id ~base =
  if base_id >= Array.length t.sup_cache then begin
    let c = Array.make (max (2 * Array.length t.sup_cache) (base_id + 1)) (-1) in
    Array.blit t.sup_cache 0 c 0 (Array.length t.sup_cache);
    t.sup_cache <- c
  end;
  match t.sup_cache.(base_id) with
  | -1 ->
      let s = suppressed_uncached t base in
      t.sup_cache.(base_id) <- (if s then 1 else 0);
      s
  | 0 -> false
  | _ -> true

let spin_active t = t.f_spin
let atomics_sync t = t.f_spin

(* Does this cell need its full writer clock kept?  Only bases spin edges
   can source from: marked condition loads target sync bases, so everyone
   else keeps the O(1) epoch and a write allocates nothing. *)
let keep_wvc t ~sup = spin_active t && (t.keep_all_wvc || sup)

(* Closure-free scan of a promoted read list for a reader concurrent with
   [tid]'s clock [vcs_t]. *)
let rec any_read_conc vcs_t tid = function
  | [] -> false
  | (r : Sh.read) :: rest ->
      (r.r_tid <> tid && Vc.mget vcs_t r.r_tid < r.r_clk)
      || any_read_conc vcs_t tid rest

(* Report decision for one plain access.  Two passes over the epochs: the
   concurrency scan, then — only when a warning actually fires — report
   emission in the reference order. *)
let check_access t ~tid ~base ~idx ~loc ~write (cell : Sh.cell) =
  let vcs_t = t.vcs.(tid) in
  let w_conc =
    cell.w_tid >= 0 && cell.w_tid <> tid
    && Vc.mget vcs_t cell.w_tid < cell.w_clk
  in
  let reads_conc =
    write
    && (if cell.rd_tid >= 0 then
          cell.rd_tid <> tid && Vc.mget vcs_t cell.rd_tid < cell.rd_clk
        else
          cell.rd_tid = Sh.promoted && any_read_conc vcs_t tid cell.rd_list)
  in
  let has_concurrent = w_conc || reads_conc in
  let entering_shared =
    match cell.state with
    | Msm.Virgin | Msm.Exclusive _ -> true
    | Msm.Shared_read | Msm.Shared_modified -> false
  in
  let new_state =
    Msm.transition cell.state ~tid ~write ~ordered:(not has_concurrent)
  in
  (match new_state with
  | Msm.Shared_read | Msm.Shared_modified when t.f_lockset_active ->
      if entering_shared then
        cell.lockset <- Lockset.Held.current t.held tid
      else if not (Lockset.is_empty cell.lockset) then
        (* narrowing an already-empty set is the identity — skip the
           intersection (and its allocation) on the steady-state path *)
        cell.lockset <-
          Lockset.inter cell.lockset (Lockset.Held.current t.held tid)
  | Msm.Virgin | Msm.Exclusive _ | Msm.Shared_read | Msm.Shared_modified -> ());
  cell.state <- new_state;
  let report_it =
    has_concurrent
    && (t.f_drd
       || new_state = Msm.Shared_modified
          && ((not t.f_lockset_active) || Lockset.is_empty cell.lockset))
  in
  if report_it then begin
    match t.cfg.Config.sensitivity with
    | Msm.Long_running when not cell.primed ->
        (* first warning on a long-running cell arms it silently *)
        cell.primed <- true
    | Msm.Long_running | Msm.Short_running ->
        let add ~first_tid ~first_loc ~first_write =
          Report.add t.report
            {
              Report.r_base = base;
              r_idx = idx;
              r_first_tid = first_tid;
              r_first_loc = first_loc;
              r_first_write = first_write;
              r_second_tid = tid;
              r_second_loc = loc;
              r_second_write = write;
              r_predicted = false;
            }
        in
        if w_conc then
          add ~first_tid:cell.w_tid ~first_loc:cell.w_loc ~first_write:true;
        if write then
          if cell.rd_tid >= 0 then begin
            if cell.rd_tid <> tid && Vc.mget vcs_t cell.rd_tid < cell.rd_clk
            then add ~first_tid:cell.rd_tid ~first_loc:cell.rd_loc ~first_write:false
          end
          else if cell.rd_tid = Sh.promoted then
            List.iter
              (fun (r : Sh.read) ->
                if r.r_tid <> tid && Vc.mget vcs_t r.r_tid < r.r_clk then
                  add ~first_tid:r.r_tid ~first_loc:r.r_loc ~first_write:false)
              cell.rd_list
  end

let spin_record t ~tid ~base_id ~idx spin =
  List.iter
    (fun (_loop, ctx) ->
      match Hashtbl.find_opt t.spin_acc ctx with
      | None -> () (* context of another thread or already closed *)
      | Some acc ->
          let cell = Sh.cell t.shadow ~base_id ~idx in
          if
            cell.w_tid >= 0 && cell.w_tid <> tid
            && not
                 (ctx = t.lsr_ctx && base_id = t.lsr_base_id
                && idx = t.lsr_idx && cell.w_vc == t.lsr_wvc)
          then begin
            Hashtbl.replace acc (base_id, idx) cell.w_vc;
            t.lsr_ctx <- ctx;
            t.lsr_base_id <- base_id;
            t.lsr_idx <- idx;
            t.lsr_wvc <- cell.w_vc
          end)
    spin

let on_read t ~tid ~base ~base_id ~idx ~loc ~kind ~spin =
  if spin <> [] && spin_active t then
    spin_record t ~tid ~base_id ~idx spin;
  let cell = Sh.cell t.shadow ~base_id ~idx in
  match kind with
  | Event.Atomic ->
      if atomics_sync t then acquire_clock t tid cell.atomic_vc
  | Event.Plain ->
      if not (suppressed t ~base_id ~base) then
        check_access t ~tid ~base ~idx ~loc ~write:false cell;
      Sh.record_read cell ~tid ~clk:(Vc.mget t.vcs.(tid) tid) ~loc

let on_write t ~tid ~base ~base_id ~idx ~loc ~kind ~value =
  let cell = Sh.cell t.shadow ~base_id ~idx in
  let sup = suppressed t ~base_id ~base in
  (match kind with
  | Event.Atomic ->
      if t.f_infer_locks && Hashtbl.mem t.inferred_locks base
      then begin
        if value = 1 then Lockset.Held.acquire t.held tid (base, idx)
        else if value = 0 then Lockset.Held.release t.held tid (base, idx)
      end;
      if atomics_sync t then begin
        acquire_clock t tid cell.atomic_vc;
        cell.atomic_vc <- snap t tid
      end
  | Event.Plain ->
      if not sup then check_access t ~tid ~base ~idx ~loc ~write:true cell);
  if keep_wvc t ~sup then cell.w_vc <- snap t tid;
  cell.w_tid <- tid;
  cell.w_clk <- Vc.mget t.vcs.(tid) tid;
  cell.w_loc <- loc;
  cell.w_atomic <- kind = Event.Atomic;
  Sh.clear_reads cell;
  (* Tick so that the writer's post-write work is not covered by the
     release snapshot readers may acquire. *)
  if kind = Event.Atomic || sup then tick t tid

let observer t (ev : Event.t) =
  match ev with
  | Event.Thread_start { tid } ->
      if Vc.m_is_bottom t.vcs.(tid) then tick t tid
  | Event.Spawn_ev { parent; child; _ } ->
      Vc.mjoin_m t.vcs.(child) t.vcs.(parent);
      tick t child;
      tick t parent
  | Event.Thread_exit { tid } -> t.exit_vcs.(tid) <- snap t tid
  | Event.Join_return { tid; target; _ } ->
      if lib_sync t then acquire_clock t tid t.exit_vcs.(target)
  | Event.Lock_acq { tid; base; idx; _ } ->
      if t.f_use_lockset then
        Lockset.Held.acquire t.held tid (base, idx);
      if t.f_lock_hb || (lib_sync t && Hashtbl.mem t.cv_mutexes base)
      then acquire_clock t tid (table_get t.mutex_vc (base, idx))
  | Event.Lock_rel { tid; base; idx; _ } ->
      if t.f_use_lockset then
        Lockset.Held.release t.held tid (base, idx);
      if t.f_lock_hb || (lib_sync t && Hashtbl.mem t.cv_mutexes base)
      then begin
        Hashtbl.replace t.mutex_vc (base, idx) (snap t tid);
        tick t tid
      end
  | Event.Cv_signal { tid; base; idx; _ } ->
      if lib_sync t then begin
        table_join t.cv_vc (base, idx) (snap t tid);
        tick t tid
      end
  | Event.Cv_wait_begin _ -> () (* the CV checker's event, not ours *)
  | Event.Cv_wait_return { tid; base; idx; _ } ->
      if lib_sync t then acquire_clock t tid (table_get t.cv_vc (base, idx))
  | Event.Barrier_arrive { tid; base; idx; generation; _ } ->
      if lib_sync t then begin
        table_join t.barrier_vc (base, idx, generation) (snap t tid);
        tick t tid
      end
  | Event.Barrier_pass { tid; base; idx; generation; _ } ->
      if lib_sync t then begin
        acquire_clock t tid (table_get t.barrier_vc (base, idx, generation));
        Hashtbl.remove t.barrier_vc (base, idx, generation - 2)
      end
  | Event.Sem_post_ev { tid; base; idx; _ } ->
      if lib_sync t then begin
        table_join t.sem_vc (base, idx) (snap t tid);
        tick t tid
      end
  | Event.Sem_acquire { tid; base; idx; _ } ->
      if lib_sync t then acquire_clock t tid (table_get t.sem_vc (base, idx))
  | Event.Spin_enter { ctx; _ } ->
      if spin_active t then begin
        t.lsr_ctx <- -1;
        Hashtbl.replace t.spin_acc ctx (Hashtbl.create 4)
      end
  | Event.Spin_exit { tid; ctx; _ } -> (
      t.lsr_ctx <- -1;
      match Hashtbl.find_opt t.spin_acc ctx with
      | None -> ()
      | Some acc ->
          Hashtbl.iter
            (fun _key wvc ->
              t.spin_edges <- t.spin_edges + 1;
              acquire_clock t tid wvc)
            acc;
          Hashtbl.remove t.spin_acc ctx)
  | Event.Read { tid; base; base_id; idx; loc; kind; spin; _ } ->
      on_read t ~tid ~base ~base_id ~idx ~loc ~kind ~spin
  | Event.Write { tid; base; base_id; idx; loc; kind; value; _ } ->
      on_write t ~tid ~base ~base_id ~idx ~loc ~kind ~value

let memory_words t =
  let clock_words =
    Array.fold_left (fun acc m -> acc + Vc.msize_words m) 0 t.vcs
  in
  let table_words tbl =
    Hashtbl.fold (fun _ c acc -> acc + 4 + Vc.size_words c) tbl 0
  in
  clock_words + Sh.size_words t.shadow + table_words t.mutex_vc
  + table_words t.cv_vc + table_words t.sem_vc
  + Hashtbl.fold (fun _ c acc -> acc + 5 + Vc.size_words c) t.barrier_vc 0
  (* Open spin contexts hold a clock snapshot per watched cell; they are
     live detector state like any other table. *)
  + Hashtbl.fold
      (fun _ acc_tbl acc ->
        acc + 2
        + Hashtbl.fold (fun _ c a -> a + 4 + Vc.size_words c) acc_tbl 0)
      t.spin_acc 0
