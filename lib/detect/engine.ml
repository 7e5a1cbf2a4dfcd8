open Arde_tir.Types
module Vc = Arde_vclock.Vector_clock
module Tc = Arde_vclock.Thread_clocks
module Kept = Arde_util.Kept
module Instrument = Arde_cfg.Instrument
module Event = Arde_runtime.Event
module Sync_ids = Arde_runtime.Sync_ids
module Sh = Shadow_epoch
module Ls = Lockset.Dense

(* The optimized engine.  Semantically a clone of {!Engine_ref} — the
   differential suite holds the two to byte-identical reports — but once
   a domain's workspace is warm, the per-event path allocates only where
   the detector's state really grows: a shadow cell no earlier seed
   touched, a new sync object, a clock that took in new knowledge, a
   race in a new context.

   - everything a seed grows lives in a workspace kept per domain and
     reset in place between seeds: shadow rows and cells (renewed lazily
     by a stamp), the per-thread clocks, held locksets, per-object
     clocks and open spin contexts;
   - per-thread clocks are mutable fixed-capacity arrays
     ({!Arde_vclock.Thread_clocks}); ticks and joins mutate in place.  A
     stored release clock is the thread's snapshot as of its last join
     raised to its own epoch, so a release after a tick (an atomic
     write, a lock release) stores the same snapshot again instead of
     taking a new one;
   - shadow cells live in flat rows indexed by the interned base id events
     carry, with last-write and single-reader state and the memory state
     machine inlined as integers ({!Shadow_epoch});
   - locks, condition variables, semaphores and barrier generations are
     dense ids ({!Arde_runtime.Sync_ids}), and locksets are sets of them
     ({!Lockset.Dense});
   - race checks are two passes over the inlined epochs: a scan deciding
     whether anything is concurrent, and — only when a warning fires — a
     second pass emitting reports in the reference order (previous write
     first, then reads, newest first), building a race only for a context
     the report has not seen. *)

(* ------------------------------------------------------------------ *)
(* Per-id clocks                                                      *)

(* Clocks keyed by a dense id, each one [c] raised to the epoch [k@u].
   [hdr] is the words the memory figure charges an entry besides its
   clock — the hash-table entry a fresh table would hold — and 0 when
   the id has no entry. *)
type clocks = {
  mutable c : Vc.t array;
  mutable u : int array;
  mutable k : int array;
  mutable hdr : int array;
  mutable used : int;  (* ids at or above it have no entry *)
}

let clocks () =
  {
    c = Array.make 8 Vc.bottom;
    u = Array.make 8 0;
    k = Array.make 8 0;
    hdr = Array.make 8 0;
    used = 0;
  }

let grow_to = Kept.grow_to

let ensure cl id =
  if id >= Array.length cl.c then begin
    cl.c <- grow_to cl.c (id + 1) Vc.bottom;
    cl.u <- grow_to cl.u (id + 1) 0;
    cl.k <- grow_to cl.k (id + 1) 0;
    cl.hdr <- grow_to cl.hdr (id + 1) 0
  end;
  if id >= cl.used then cl.used <- id + 1

let set_entry cl id ~hdr c u k =
  ensure cl id;
  cl.c.(id) <- c;
  cl.u.(id) <- u;
  cl.k.(id) <- k;
  cl.hdr.(id) <- hdr

let unset cl id =
  if id >= 0 && id < cl.used then begin
    cl.c.(id) <- Vc.bottom;
    cl.hdr.(id) <- 0
  end

let clear_clocks cl =
  Array.fill cl.c 0 cl.used Vc.bottom;
  Array.fill cl.hdr 0 cl.used 0;
  cl.used <- 0

let clocks_words cl =
  let acc = ref 0 in
  for i = 0 to cl.used - 1 do
    if cl.hdr.(i) > 0 then
      acc := !acc + cl.hdr.(i) + Vc.size_words_raised cl.c.(i) cl.u.(i) cl.k.(i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Open spin contexts                                                 *)

(* One open context's accumulator: the writer clock last seen at each
   watched cell, one entry per (base id, index), found by a scan.  The
   PARSEC catalog's spin contexts watch one cell each. *)
type slot = {
  mutable ctx : int;
  mutable n : int;
  mutable bids : int array;
  mutable idxs : int array;
  mutable wvc : Vc.t array;
  mutable wu : int array;
  mutable wk : int array;
}

let new_slot () =
  { ctx = 0; n = 0; bids = [||]; idxs = [||]; wvc = [||]; wu = [||]; wk = [||] }

let no_slot = new_slot () (* fills the unopened entries of [slots] *)

let clear_slot s =
  Array.fill s.wvc 0 s.n Vc.bottom;
  s.n <- 0

let rec find_entry s bid idx i =
  if i >= s.n then -1
  else if s.bids.(i) = bid && s.idxs.(i) = idx then i
  else find_entry s bid idx (i + 1)

let slot_record s bid idx c u k =
  let i = find_entry s bid idx 0 in
  let i =
    if i >= 0 then i
    else begin
      let i = s.n in
      if i = Array.length s.bids then begin
        s.bids <- grow_to s.bids (i + 1) 0;
        s.idxs <- grow_to s.idxs (i + 1) 0;
        s.wvc <- grow_to s.wvc (i + 1) Vc.bottom;
        s.wu <- grow_to s.wu (i + 1) 0;
        s.wk <- grow_to s.wk (i + 1) 0
      end;
      s.bids.(i) <- bid;
      s.idxs.(i) <- idx;
      s.n <- i + 1;
      i
    end
  in
  s.wvc.(i) <- c;
  s.wu.(i) <- u;
  s.wk.(i) <- k

let slot_words s =
  let acc = ref 2 in
  for i = 0 to s.n - 1 do
    acc := !acc + 4 + Vc.size_words_raised s.wvc.(i) s.wu.(i) s.wk.(i)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The per-domain workspace                                           *)

(* Everything a seed's detector grows, kept between seeds in the
   domain's {!Kept} slot: taken by [create], reset and handed back by
   [finish].  An engine never finished (a crashed seed) keeps its
   workspace, which then goes with it. *)
type workspace = {
  shadow : Sh.t;
  tc : Tc.t;  (* the per-thread clocks *)
  vcs : Vc.m array;  (* [tc]'s mutable clocks, for the hot scans *)
  held : Ls.held;
  syncs : Sync_ids.t;
  mutexes : clocks;  (* per lock id *)
  objects : clocks;  (* per CV, semaphore or barrier-generation id *)
  mutable lock_cv : int array;
      (* per lock id: -1 unknown, 1 a CV-associated mutex, 0 not *)
  mutable base_flags : int array;
      (* per base id: -1 unknown, else [sup_flag] and [inferred_flag] *)
  mutable slots : slot array;  (* the first [n_open] are open contexts *)
  mutable n_open : int;
}

let new_workspace threads =
  let tc = Tc.create threads in
  {
    shadow = Sh.create ();
    tc;
    vcs = Tc.clocks tc;
    held = Ls.held threads;
    syncs = Sync_ids.create ();
    mutexes = clocks ();
    objects = clocks ();
    lock_cv = Array.make 8 (-1);
    base_flags = Array.make 16 (-1);
    slots = [||];
    n_open = 0;
  }

(* Back to the state [new_workspace] gives, keeping every allocation. *)
let reset ws =
  Sh.reset ws.shadow;
  Tc.clear ws.tc;
  Ls.clear ws.held;
  Sync_ids.clear ws.syncs;
  clear_clocks ws.mutexes;
  clear_clocks ws.objects;
  Array.fill ws.lock_cv 0 (Array.length ws.lock_cv) (-1);
  Array.fill ws.base_flags 0 (Array.length ws.base_flags) (-1);
  for p = 0 to ws.n_open - 1 do
    clear_slot ws.slots.(p)
  done;
  ws.n_open <- 0

let footprint ws =
  Sh.footprint ws.shadow + Ls.footprint ws.held + Sync_ids.footprint ws.syncs
  + Array.length ws.mutexes.c + Array.length ws.objects.c
  + Array.length ws.lock_cv + Array.length ws.base_flags
  + Array.fold_left (fun acc s -> acc + Array.length s.bids) 0 ws.slots

let kept = Kept.slot ~footprint ~reset

(* Engines past the machine's thread cap get a workspace of their own,
   and it is never kept. *)
let take threads =
  if threads > max_threads then new_workspace threads
  else Kept.take kept (fun () -> new_workspace max_threads)

let give_back ws =
  if Array.length ws.vcs = max_threads then Kept.give_back kept ws

let retained () = Kept.retained kept

(* ------------------------------------------------------------------ *)
(* The engine                                                         *)

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
  keep_all_wvc : bool;
      (* no instrumentation to narrow by (hand-fed spin streams): keep the
         full writer clock on every cell so spin edges stay sourced *)
  ws : workspace;
  report : Report.t;
  mutable spin_edges : int;
  mutable finished : bool;
  (* memo of the last spin recording: a spinning read re-observing the
     same cell with the same writer clock re-stores an identical binding,
     so skip the accumulator lookup entirely.  Cleared whenever a spin
     context opens or closes. *)
  mutable lsr_ctx : int;
  mutable lsr_base_id : int;
  mutable lsr_idx : int;
  mutable lsr_wvc : Vc.t;
  mutable lsr_wu : int;
  mutable lsr_wk : int;
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
    keep_all_wvc = spin_active_cfg cfg && instrument = None;
    ws = take (max threads max_threads);
    report = Report.create ~cap:cfg.Config.cap ();
    spin_edges = 0;
    finished = false;
    lsr_ctx = -1;
    lsr_base_id = 0;
    lsr_idx = 0;
    lsr_wvc = Vc.bottom;
    lsr_wu = 0;
    lsr_wk = 0;
  }

let report t = t.report
let n_spin_edges t = t.spin_edges

let finished_engine = Invalid_argument "Engine: the engine has finished"

let finish t =
  if t.finished then raise finished_engine;
  t.finished <- true;
  give_back t.ws

let lib_sync t = t.f_lib_sync

let own t tid = Vc.mget t.ws.vcs.(tid) tid

let acquire_entry t tid cl id =
  if id < cl.used && cl.hdr.(id) > 0 then
    Tc.acquire_raised t.ws.tc tid cl.c.(id) cl.u.(id) cl.k.(id)

(* [hdr]: 4 words for a [(base, idx)] key's entry, 5 with a generation *)
let join_entry t tid cl id ~hdr =
  let cur = if id < cl.used then cl.c.(id) else Vc.bottom in
  set_entry cl id ~hdr (Vc.join cur (Tc.snapshot t.ws.tc tid)) 0 0

(* Per-base predicates of the hot path, memoized per interned base id
   so it skips the string set lookups.  Spin-condition variables are
   synchronization; inferred lock words drive the lockset. *)
let sup_flag = 1
let inferred_flag = 2

let base_flags t ~base_id ~base =
  let ws = t.ws in
  if base_id >= Array.length ws.base_flags then
    ws.base_flags <- grow_to ws.base_flags (base_id + 1) (-1);
  match ws.base_flags.(base_id) with
  | -1 ->
      let sup =
        match t.instrument with
        | Some inst -> Instrument.is_sync_base inst base
        | None -> false
      in
      let inf = t.f_infer_locks && Hashtbl.mem t.inferred_locks base in
      let f = (if sup then sup_flag else 0) lor if inf then inferred_flag else 0 in
      ws.base_flags.(base_id) <- f;
      f
  | f -> f

let suppressed t ~base_id ~base = base_flags t ~base_id ~base land sup_flag <> 0

let cv_mutex t id base =
  let ws = t.ws in
  if id >= Array.length ws.lock_cv then
    ws.lock_cv <- grow_to ws.lock_cv (id + 1) (-1);
  match ws.lock_cv.(id) with
  | -1 ->
      let f = Hashtbl.mem t.cv_mutexes base in
      ws.lock_cv.(id) <- (if f then 1 else 0);
      f
  | f -> f = 1

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

(* One warning, built only for a context the report has not seen. *)
let warn t ~base ~idx ~tid ~loc ~write ~first_tid ~first_loc ~first_write =
  if not (Report.seen t.report ~base first_loc loc) then
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

let rec warn_reads t ~base ~idx ~tid ~loc vcs_t = function
  | [] -> ()
  | (r : Sh.read) :: rest ->
      if r.r_tid <> tid && Vc.mget vcs_t r.r_tid < r.r_clk then
        warn t ~base ~idx ~tid ~loc ~write:true ~first_tid:r.r_tid
          ~first_loc:r.r_loc ~first_write:false;
      warn_reads t ~base ~idx ~tid ~loc vcs_t rest

(* Report decision for one plain access.  Two passes over the epochs: the
   concurrency scan, then — only when a warning actually fires — report
   emission in the reference order. *)
let check_access t ~tid ~base ~idx ~loc ~write (cell : Sh.cell) =
  let vcs_t = t.ws.vcs.(tid) in
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
  (* Virgin or Exclusive *)
  let entering_shared = cell.state >= 0 || cell.state = Msm.virgin in
  let new_state =
    Msm.transition_code cell.state ~tid ~write ~ordered:(not has_concurrent)
  in
  if
    t.f_lockset_active
    && (new_state = Msm.shared_read || new_state = Msm.shared_modified)
  then
    if entering_shared then cell.lockset <- Ls.current t.ws.held tid
    else if not (Ls.is_empty cell.lockset) then
      (* narrowing an already-empty set is the identity — skip it *)
      cell.lockset <- Ls.inter cell.lockset (Ls.current t.ws.held tid);
  cell.state <- new_state;
  let report_it =
    has_concurrent
    && (t.f_drd
       || new_state = Msm.shared_modified
          && ((not t.f_lockset_active) || Ls.is_empty cell.lockset))
  in
  if report_it then begin
    match t.cfg.Config.sensitivity with
    | Msm.Long_running when not cell.primed ->
        (* first warning on a long-running cell arms it silently *)
        cell.primed <- true
    | Msm.Long_running | Msm.Short_running ->
        if w_conc then
          warn t ~base ~idx ~tid ~loc ~write ~first_tid:cell.w_tid
            ~first_loc:cell.w_loc ~first_write:true;
        if write then
          if cell.rd_tid >= 0 then begin
            if cell.rd_tid <> tid && Vc.mget vcs_t cell.rd_tid < cell.rd_clk
            then
              warn t ~base ~idx ~tid ~loc ~write ~first_tid:cell.rd_tid
                ~first_loc:cell.rd_loc ~first_write:false
          end
          else if cell.rd_tid = Sh.promoted then
            warn_reads t ~base ~idx ~tid ~loc vcs_t cell.rd_list
  end

(* The open context [ctx], as a position among the open slots, or -1
   (another thread's context, or one already closed).  A scan: the
   PARSEC catalog keeps at most 10 contexts open at once. *)
let rec find_open ws ctx p =
  if p >= ws.n_open then -1
  else if ws.slots.(p).ctx = ctx then p
  else find_open ws ctx (p + 1)

let open_context ws ctx =
  let p = find_open ws ctx 0 in
  if p >= 0 then clear_slot ws.slots.(p)
  else begin
    if ws.n_open = Array.length ws.slots then
      ws.slots <- grow_to ws.slots (ws.n_open + 1) no_slot;
    if ws.slots.(ws.n_open) == no_slot then ws.slots.(ws.n_open) <- new_slot ();
    ws.slots.(ws.n_open).ctx <- ctx;
    ws.n_open <- ws.n_open + 1
  end

(* Closing swaps the slot with the last open one, keeping the open ones
   first. *)
let close_context ws p =
  let s = ws.slots.(p) in
  clear_slot s;
  let last = ws.n_open - 1 in
  ws.slots.(p) <- ws.slots.(last);
  ws.slots.(last) <- s;
  ws.n_open <- last

let rec spin_record t ~tid ~base_id ~idx = function
  | [] -> ()
  | (_loop, ctx) :: rest ->
      let p = find_open t.ws ctx 0 in
      if p >= 0 then begin
        let cell = Sh.cell t.ws.shadow ~base_id ~idx in
        if
          cell.w_tid >= 0 && cell.w_tid <> tid
          && not
               (ctx = t.lsr_ctx && base_id = t.lsr_base_id
              && idx = t.lsr_idx && cell.w_vc == t.lsr_wvc
              && cell.wv_tid = t.lsr_wu && cell.wv_clk = t.lsr_wk)
        then begin
          slot_record t.ws.slots.(p) base_id idx cell.w_vc cell.wv_tid
            cell.wv_clk;
          t.lsr_ctx <- ctx;
          t.lsr_base_id <- base_id;
          t.lsr_idx <- idx;
          t.lsr_wvc <- cell.w_vc;
          t.lsr_wu <- cell.wv_tid;
          t.lsr_wk <- cell.wv_clk
        end
      end;
      spin_record t ~tid ~base_id ~idx rest

let on_read t ~tid ~base ~base_id ~idx ~loc ~kind ~spin =
  if spin <> [] && spin_active t then spin_record t ~tid ~base_id ~idx spin;
  let cell = Sh.cell t.ws.shadow ~base_id ~idx in
  match kind with
  | Event.Atomic ->
      if atomics_sync t then
        Tc.acquire_raised t.ws.tc tid cell.atomic_vc cell.a_tid cell.a_clk
  | Event.Plain ->
      if not (suppressed t ~base_id ~base) then
        check_access t ~tid ~base ~idx ~loc ~write:false cell;
      Sh.record_read cell ~tid ~clk:(own t tid) ~loc

let on_write t ~tid ~base ~base_id ~idx ~loc ~kind ~value =
  let cell = Sh.cell t.ws.shadow ~base_id ~idx in
  let flags = base_flags t ~base_id ~base in
  let sup = flags land sup_flag <> 0 in
  (match kind with
  | Event.Atomic ->
      if flags land inferred_flag <> 0 && (value = 1 || value = 0) then begin
        let id = Sync_ids.lock t.ws.syncs ~base ~idx in
        if value = 1 then Ls.acquire t.ws.held tid id
        else Ls.release t.ws.held tid id
      end;
      if atomics_sync t then begin
        Tc.acquire_raised t.ws.tc tid cell.atomic_vc cell.a_tid cell.a_clk;
        cell.atomic_vc <- Tc.joined t.ws.tc tid;
        cell.a_tid <- tid;
        cell.a_clk <- own t tid
      end
  | Event.Plain ->
      if not sup then check_access t ~tid ~base ~idx ~loc ~write:true cell);
  if keep_wvc t ~sup then begin
    cell.w_vc <- Tc.joined t.ws.tc tid;
    cell.wv_tid <- tid;
    cell.wv_clk <- own t tid
  end;
  cell.w_tid <- tid;
  cell.w_clk <- own t tid;
  cell.w_loc <- loc;
  cell.w_atomic <- kind = Event.Atomic;
  Sh.clear_reads cell;
  (* Tick so that the writer's post-write work is not covered by the
     release clock readers may acquire. *)
  if kind = Event.Atomic || sup then Tc.tick t.ws.tc tid

(* Native locks: the lockset, and the lock-order edge where the mode
   draws one (every mutex, or Helgrind+'s CV-associated ones). *)
let lock_event t ~tid ~base ~idx ~acquire =
  if t.f_use_lockset || t.f_lock_hb || lib_sync t then begin
    let ws = t.ws in
    let id = Sync_ids.lock ws.syncs ~base ~idx in
    if t.f_use_lockset then
      if acquire then Ls.acquire ws.held tid id else Ls.release ws.held tid id;
    if t.f_lock_hb || (lib_sync t && cv_mutex t id base) then
      if acquire then acquire_entry t tid ws.mutexes id
      else begin
        set_entry ws.mutexes id ~hdr:4 (Tc.joined ws.tc tid) tid (own t tid);
        Tc.tick ws.tc tid
      end
  end

let observer t (ev : Event.t) =
  if t.finished then raise finished_engine;
  let ws = t.ws in
  match ev with
  | Event.Thread_start { tid } ->
      if Vc.m_is_bottom ws.vcs.(tid) then Tc.tick ws.tc tid
  | Event.Spawn_ev { parent; child; _ } -> Tc.spawn ws.tc ~parent ~child
  | Event.Thread_exit { tid } -> Tc.exit ws.tc tid
  | Event.Join_return { tid; target; _ } ->
      if lib_sync t then Tc.join_exit ws.tc tid ~target
  | Event.Lock_acq { tid; base; idx; _ } ->
      lock_event t ~tid ~base ~idx ~acquire:true
  | Event.Lock_rel { tid; base; idx; _ } ->
      lock_event t ~tid ~base ~idx ~acquire:false
  | Event.Cv_signal { tid; _ } | Event.Sem_post_ev { tid; _ } ->
      if lib_sync t then begin
        join_entry t tid ws.objects (Sync_ids.of_event ws.syncs ev) ~hdr:4;
        Tc.tick ws.tc tid
      end
  | Event.Cv_wait_begin _ -> () (* the CV checker's event, not ours *)
  | Event.Cv_wait_return { tid; _ } | Event.Sem_acquire { tid; _ } ->
      if lib_sync t then
        acquire_entry t tid ws.objects (Sync_ids.of_event ws.syncs ev)
  | Event.Barrier_arrive { tid; _ } ->
      if lib_sync t then begin
        join_entry t tid ws.objects (Sync_ids.of_event ws.syncs ev) ~hdr:5;
        Tc.tick ws.tc tid
      end
  | Event.Barrier_pass { tid; base; idx; generation; _ } ->
      if lib_sync t then begin
        acquire_entry t tid ws.objects (Sync_ids.of_event ws.syncs ev);
        unset ws.objects
          (Sync_ids.find_barrier ws.syncs ~base ~idx
             ~generation:(generation - 2))
      end
  | Event.Spin_enter { ctx; _ } ->
      if spin_active t then begin
        t.lsr_ctx <- -1;
        open_context ws ctx
      end
  | Event.Spin_exit { tid; ctx; _ } ->
      t.lsr_ctx <- -1;
      let p = find_open ws ctx 0 in
      if p >= 0 then begin
        let s = ws.slots.(p) in
        for i = 0 to s.n - 1 do
          t.spin_edges <- t.spin_edges + 1;
          Tc.acquire_raised ws.tc tid s.wvc.(i) s.wu.(i) s.wk.(i)
        done;
        close_context ws p
      end
  | Event.Read { tid; base; base_id; idx; loc; kind; spin; _ } ->
      on_read t ~tid ~base ~base_id ~idx ~loc ~kind ~spin
  | Event.Write { tid; base; base_id; idx; loc; kind; value; _ } ->
      on_write t ~tid ~base ~base_id ~idx ~loc ~kind ~value

let live t = if t.finished then raise finished_engine else t.ws

let n_shadow_cells t = Sh.n_cells (live t).shadow

(* What a fresh engine would hold for this seed: the clocks at their
   capacity, the shadow table as this seed grew it, one table entry per
   clock set, and the open spin contexts' accumulators. *)
let memory_words t =
  let ws = live t in
  let spin_words = ref 0 in
  for p = 0 to ws.n_open - 1 do
    spin_words := !spin_words + slot_words ws.slots.(p)
  done;
  Tc.size_words ws.tc + Sh.size_words ws.shadow + clocks_words ws.mutexes
  + clocks_words ws.objects + !spin_words
