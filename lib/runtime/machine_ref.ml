(* The PR-3-era interpreting machine, frozen verbatim.

   This is the differential oracle for the optimized {!Machine}: same
   [config] in, same [result] and — crucially — the same *event sequence*
   out, for every program, policy, seed and perturbation.  It exists for
   the same reason {!Arde_detect.Engine_ref} does: wall-clock baselines do
   not survive hardware changes, but an executable reference does.  The
   machine benchmark runs both implementations in the same process and
   gates on their ratio, and [test_machine_diff] replays the golden
   fixture enumeration through both.

   Apart from this prologue, the only edits relative to the frozen
   [machine.ml] are: the public types and exceptions are aliases of
   {!Machine}'s (so observers, chaos injectors and drivers interoperate
   with either machine unchanged), and the list-based scheduler this
   machine was written against is embedded as [Sched_ref] because {!Sched}
   itself moved to a reusable runnable buffer.  Do not optimize this
   file. *)

open Arde_tir.Types
module Instrument = Arde_cfg.Instrument

type config = Machine.config = {
  policy : Sched.policy;
  seed : int;
  fuel : int;
  instrument : Instrument.t option;
  spurious_wakeups : bool;
  observer : Event.t -> unit;
}

type spin_site = Machine.spin_site = {
  sp_tid : int;
  sp_loop : int;
  sp_loc : loc;
  sp_bases : string list;
}

type outcome = Machine.outcome =
  | Finished
  | Deadlock of int list
  | Fuel_exhausted
  | Livelock of spin_site list
  | Fault of { ftid : int; floc : loc; msg : string }

type result = Machine.result = {
  outcome : outcome;
  steps : int;
  threads_spawned : int;
  check_failures : (loc * string) list;
  memory : (string, int array) Hashtbl.t;
  thread_steps : int array; (* instructions executed per thread *)
  context_switches : int;
}

exception Fault_exn = Machine.Fault_exn
exception Internal_violation = Machine.Internal_violation

(* The list-based scheduler the frozen machine was written against,
   verbatim from the PR-3-era [sched.ml]. *)
module Sched_ref = struct
  type t = {
    policy : Sched.policy;
    rng : Arde_util.Prng.t;
    mutable current : int;
    mutable burst : int; (* remaining instructions before a forced re-pick *)
  }

  let create policy ~seed =
    { policy; rng = Arde_util.Prng.create seed; current = -1; burst = 0 }

  let force_switch t = t.burst <- 0

  let fresh_burst t mean = 1 + Arde_util.Prng.int t.rng (2 * mean)

  let pick t ~runnable =
    match runnable with
    | [] -> invalid_arg "Sched.pick: no runnable thread"
    | [ only ] ->
        t.current <- only;
        only
    | _ -> (
        match t.policy with
        | Sched.Round_robin quantum ->
            let next () =
              match List.find_opt (fun x -> x > t.current) runnable with
              | Some x -> x
              | None -> List.hd runnable
            in
            if t.burst > 0 && List.mem t.current runnable then begin
              t.burst <- t.burst - 1;
              t.current
            end
            else begin
              t.current <- next ();
              t.burst <- quantum - 1;
              t.current
            end
        | Sched.Uniform ->
            t.current <- Arde_util.Prng.pick t.rng (Array.of_list runnable);
            t.current
        | Sched.Chunked mean ->
            if t.burst > 0 && List.mem t.current runnable then begin
              t.burst <- t.burst - 1;
              t.current
            end
            else begin
              t.current <- Arde_util.Prng.pick t.rng (Array.of_list runnable);
              t.burst <- fresh_burst t mean;
              t.current
            end)
end

(* ------------------------------------------------------------------ *)
(* Compiled representation                                            *)

type cblock = { clbl : label; cins : instr array; cterm : term }

type cfunc = {
  csrc : func;
  cblocks : cblock array;
  cindex : (label, int) Hashtbl.t;
}

type compiled = {
  prog : program;
  cfuncs : (string, cfunc) Hashtbl.t;
  centry : string;
  cintern : Arde_tir.Intern.t;
  td_id : int; (* interned id of [thread_done_global] *)
  td_declared : bool;
}

let compile prog =
  Arde_tir.Validate.check_exn prog;
  let cfuncs = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let cblocks =
        Array.of_list
          (List.map
             (fun b -> { clbl = b.lbl; cins = Array.of_list b.ins; cterm = b.term })
             f.blocks)
      in
      let cindex = Hashtbl.create (Array.length cblocks) in
      Array.iteri (fun i cb -> Hashtbl.replace cindex cb.clbl i) cblocks;
      Hashtbl.replace cfuncs f.fname { csrc = f; cblocks; cindex })
    prog.funcs;
  let cintern = Arde_tir.Intern.of_program prog in
  let td_id = Arde_tir.Intern.id cintern thread_done_global in
  {
    prog;
    cfuncs;
    centry = prog.entry;
    cintern;
    td_id;
    td_declared = Arde_tir.Intern.declared cintern td_id;
  }

(* ------------------------------------------------------------------ *)
(* Machine state                                                      *)

type frame = {
  ffn : cfunc;
  mutable fblk : int; (* block index *)
  mutable fpc : int; (* instruction index within the block *)
  fregs : (string, int) Hashtbl.t;
  fret : reg option; (* caller register receiving our return value *)
  fdepth : int;
}

type spin_ctx = { sc_loop : int; sc_serial : int; sc_depth : int }

type status =
  | Runnable
  | Blocked_lock of { lkey : string * int; after_wait : (string * int) option }
  | Blocked_cv of { cv : string * int; mu : string * int }
  | Blocked_barrier of (string * int)
  | Blocked_sem of (string * int)
  | Blocked_join of int
  | Done

type thread = {
  tid : int;
  mutable frames : frame list; (* head is the active frame *)
  mutable status : status;
  mutable spins : spin_ctx list; (* head is the innermost active context *)
}

type mutex_state = { mutable owner : int option; mwaiters : int Queue.t }
type cv_state = { cwaiters : (int * (string * int)) Queue.t }
type barrier_state = { mutable total : int; mutable arrived : int list; mutable gen : int }
type sem_state = { mutable count : int; swaiters : int Queue.t }

(* A broken machine invariant: never the interpreted program's fault, and
   never recoverable within the run.  Escapes [run] as a structured
   exception so harnesses can report "the detector crashed" instead of
   dying on a bare [Invalid_argument]. *)
let internal msg = raise (Internal_violation ("Machine: " ^ msg))

type machine = {
  cfg : config;
  cpl : compiled;
  mem : int array array; (* rows indexed by interned base id *)
  threads : thread option array;
  mutable n_threads : int;
  sched : Sched_ref.t;
  rng : Arde_util.Prng.t; (* spurious wakeups only *)
  mutexes : (string * int, mutex_state) Hashtbl.t;
  cvs : (string * int, cv_state) Hashtbl.t;
  barriers : (string * int, barrier_state) Hashtbl.t;
  sems : (string * int, sem_state) Hashtbl.t;
  mutable serial : int; (* spin-context serial counter *)
  mutable checks : (loc * string) list;
  mutable steps : int;
  thread_steps : int array;
  mutable last_tid : int;
  mutable context_switches : int;
}

let runtime_exit_loc tid =
  { lfunc = "<runtime>"; lblk = "thread-exit"; lidx = tid }

let emit m ev = m.cfg.observer ev

let thread m tid =
  match m.threads.(tid) with
  | Some t -> t
  | None -> internal "dead thread id"

let cur_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> internal "thread has no frame"

let cur_loc t =
  let f = cur_frame t in
  let b = f.ffn.cblocks.(f.fblk) in
  if f.fpc < Array.length b.cins then
    { lfunc = f.ffn.csrc.fname; lblk = b.clbl; lidx = f.fpc }
  else { lfunc = f.ffn.csrc.fname; lblk = b.clbl; lidx = -1 }

let fault t msg = raise (Fault_exn (cur_loc t, msg))

let reg_value t r =
  match Hashtbl.find_opt (cur_frame t).fregs r with
  | Some v -> v
  | None -> fault t (Printf.sprintf "register %%%s read before assignment" r)

let eval t = function Imm n -> n | Reg r -> reg_value t r

let set_reg t r v = Hashtbl.replace (cur_frame t).fregs r v

let base_name m id = Arde_tir.Intern.name m.cpl.cintern id

(* Interned resolution for memory accesses: (base id, index). *)
let resolve_id m t (a : addr) =
  let idx = eval t a.index in
  let id = Arde_tir.Intern.id m.cpl.cintern a.base in
  if id < 0 || not (Arde_tir.Intern.declared m.cpl.cintern id) then
    fault t (Printf.sprintf "unknown global %S" a.base)
  else
    let arr = m.mem.(id) in
    if idx < 0 || idx >= Array.length arr then
      fault t (Printf.sprintf "index %d out of bounds for %s[%d]" idx a.base
                 (Array.length arr))
    else (id, idx)

(* Named resolution for synchronization objects (mutexes, cvs, barriers,
   semaphores): these tables are keyed by name and the operations are rare
   enough that string keys cost nothing measurable. *)
let resolve m t (a : addr) =
  let id, idx = resolve_id m t a in
  (base_name m id, idx)

let mem_get m (id, idx) = m.mem.(id).(idx)
let mem_set m (id, idx) v = m.mem.(id).(idx) <- v

let mutex m key =
  match Hashtbl.find_opt m.mutexes key with
  | Some s -> s
  | None ->
      let s = { owner = None; mwaiters = Queue.create () } in
      Hashtbl.replace m.mutexes key s;
      s

let cv m key =
  match Hashtbl.find_opt m.cvs key with
  | Some s -> s
  | None ->
      let s = { cwaiters = Queue.create () } in
      Hashtbl.replace m.cvs key s;
      s

let sem m key =
  match Hashtbl.find_opt m.sems key with
  | Some s -> s
  | None ->
      let s = { count = 0; swaiters = Queue.create () } in
      Hashtbl.replace m.sems key s;
      s

(* ------------------------------------------------------------------ *)
(* Spin-context bookkeeping                                           *)

let spin_pop m t ctx =
  t.spins <- List.tl t.spins;
  emit m (Event.Spin_exit { tid = t.tid; loop_id = ctx.sc_loop; ctx = ctx.sc_serial })

(* Called whenever control in frame [f] lands on (the start of) block
   [blk]: close contexts whose loop no longer contains the block, then
   open one if the block is a marked loop header. *)
let spin_transition m t (f : frame) blk_index =
  match m.cfg.instrument with
  | None -> ()
  | Some inst ->
      let fname = f.ffn.csrc.fname in
      let lbl = f.ffn.cblocks.(blk_index).clbl in
      let rec close () =
        match t.spins with
        | c :: _
          when c.sc_depth = f.fdepth
               && not (Instrument.in_loop inst ~fname ~lbl c.sc_loop) ->
            spin_pop m t c;
            close ()
        | _ -> ()
      in
      close ();
      (match Instrument.header_at inst ~fname ~lbl with
      | Some id ->
          let already =
            match t.spins with
            | c :: _ -> c.sc_loop = id && c.sc_depth = f.fdepth
            | [] -> false
          in
          if not already then begin
            m.serial <- m.serial + 1;
            t.spins <- { sc_loop = id; sc_serial = m.serial; sc_depth = f.fdepth } :: t.spins;
            emit m (Event.Spin_enter { tid = t.tid; loop_id = id; ctx = m.serial })
          end
      | None -> ())

(* Close every context belonging to a popped frame (loop exited by
   returning out of the function). *)
let spin_unwind m t depth =
  let rec go () =
    match t.spins with
    | c :: _ when c.sc_depth >= depth ->
        spin_pop m t c;
        go ()
    | _ -> ()
  in
  go ()

let spin_tags m t l =
  match m.cfg.instrument with
  | None -> []
  | Some inst -> (
      match Instrument.marked_loops_at inst l with
      | [] -> []
      | ids ->
          List.filter_map
            (fun c ->
              if List.mem c.sc_loop ids then Some (c.sc_loop, c.sc_serial)
              else None)
            t.spins)

(* ------------------------------------------------------------------ *)
(* Thread control                                                     *)

let push_frame t (fn : cfunc) args ret =
  let fregs = Hashtbl.create 8 in
  List.iteri (fun i p -> Hashtbl.replace fregs p (List.nth args i)) fn.csrc.params;
  let depth = match t.frames with f :: _ -> f.fdepth + 1 | [] -> 0 in
  t.frames <- { ffn = fn; fblk = 0; fpc = 0; fregs; fret = ret; fdepth = depth } :: t.frames

let advance t = (cur_frame t).fpc <- (cur_frame t).fpc + 1

let wake_joiners m target =
  Array.iter
    (function
      | Some w when w.status = Blocked_join target ->
          w.status <- Runnable;
          emit m (Event.Join_return { tid = w.tid; target; loc = cur_loc w });
          advance w
      | Some _ | None -> ())
    m.threads

let thread_exit m t =
  t.status <- Done;
  spin_unwind m t 0;
  t.frames <- [];
  (* The kernel-visible "thread is gone" store: the cell lowered joins
     spin on.  Attributed to the exiting thread like a real runtime's
     final flag write. *)
  if m.cpl.td_declared then m.mem.(m.cpl.td_id).(t.tid) <- 1;
  emit m
    (Event.Write
       {
         tid = t.tid;
         base = thread_done_global;
         base_id = m.cpl.td_id;
         idx = t.tid;
         value = 1;
         loc = runtime_exit_loc t.tid;
         kind = Event.Plain;
       });
  emit m (Event.Thread_exit { tid = t.tid });
  wake_joiners m t.tid

(* Grant mutex [key] to waiting thread [w], completing its pending Lock
   (or the reacquisition leg of a Cond_wait). *)
let grant_mutex m key w after_wait =
  let mu = mutex m key in
  mu.owner <- Some w.tid;
  (match after_wait with
  | Some (cvb, cvi) ->
      emit m (Event.Cv_wait_return { tid = w.tid; base = cvb; idx = cvi; loc = cur_loc w })
  | None -> ());
  emit m (Event.Lock_acq { tid = w.tid; base = fst key; idx = snd key; loc = cur_loc w });
  w.status <- Runnable;
  advance w

let release_mutex m t key =
  let mu = mutex m key in
  (match mu.owner with
  | Some o when o = t.tid -> ()
  | Some _ -> fault t (Printf.sprintf "unlock of %s[%d] by non-owner" (fst key) (snd key))
  | None -> fault t (Printf.sprintf "unlock of free mutex %s[%d]" (fst key) (snd key)));
  emit m (Event.Lock_rel { tid = t.tid; base = fst key; idx = snd key; loc = cur_loc t });
  if Queue.is_empty mu.mwaiters then mu.owner <- None
  else begin
    let wt = Queue.pop mu.mwaiters in
    let w = thread m wt in
    match w.status with
    | Blocked_lock { after_wait; _ } -> grant_mutex m key w after_wait
    | _ -> internal "mutex waiter in wrong state"
  end

let wake_cv_waiter m key =
  let c = cv m key in
  if Queue.is_empty c.cwaiters then false
  else begin
    let wt, mkey = Queue.pop c.cwaiters in
    let w = thread m wt in
    let mu = mutex m mkey in
    (match mu.owner with
    | None -> grant_mutex m mkey w (Some key)
    | Some _ ->
        w.status <- Blocked_lock { lkey = mkey; after_wait = Some key };
        Queue.push wt mu.mwaiters);
    true
  end

(* ------------------------------------------------------------------ *)
(* Instruction execution                                              *)

let binop_eval t op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then fault t "division by zero" else a / b
  | Mod -> if b = 0 then fault t "modulo by zero" else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 62)
  | Shr -> a lsr (b land 62)

let cmp_eval op a b =
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if r then 1 else 0

let find_func m t name =
  match Hashtbl.find_opt m.cpl.cfuncs name with
  | Some fn -> fn
  | None -> fault t (Printf.sprintf "unknown function %S" name)

let spawn_thread m t name args =
  let fn = find_func m t name in
  if m.n_threads >= max_threads then fault t "thread limit exceeded";
  let child_tid = m.n_threads in
  m.n_threads <- m.n_threads + 1;
  let child = { tid = child_tid; frames = []; status = Runnable; spins = [] } in
  m.threads.(child_tid) <- Some child;
  push_frame child fn args None;
  spin_transition m child (cur_frame child) 0;
  child_tid

let exec_call m t ret name args =
  let fn = find_func m t name in
  if List.length args <> List.length fn.csrc.params then
    fault t (Printf.sprintf "arity mismatch calling %S" name);
  advance t;
  push_frame t fn args ret;
  spin_transition m t (cur_frame t) 0

let exec_instr m t i =
  let tid = t.tid in
  match i with
  | Mov (d, o) ->
      set_reg t d (eval t o);
      advance t
  | Binop (d, op, a, b) ->
      set_reg t d (binop_eval t op (eval t a) (eval t b));
      advance t
  | Cmp (d, op, a, b) ->
      set_reg t d (cmp_eval op (eval t a) (eval t b));
      advance t
  | Load (d, a) ->
      let loc = cur_loc t in
      let ((id, idx) as key) = resolve_id m t a in
      let v = mem_get m key in
      emit m
        (Event.Read
           {
             tid;
             base = base_name m id;
             base_id = id;
             idx;
             value = v;
             loc;
             kind = Event.Plain;
             spin = spin_tags m t loc;
           });
      set_reg t d v;
      advance t
  | Store (a, o) ->
      let loc = cur_loc t in
      let ((id, idx) as key) = resolve_id m t a in
      let v = eval t o in
      mem_set m key v;
      emit m
        (Event.Write
           {
             tid;
             base = base_name m id;
             base_id = id;
             idx;
             value = v;
             loc;
             kind = Event.Plain;
           });
      advance t
  | Cas (d, a, expect, new_) ->
      let loc = cur_loc t in
      let ((id, idx) as key) = resolve_id m t a in
      let old = mem_get m key in
      emit m
        (Event.Read
           {
             tid;
             base = base_name m id;
             base_id = id;
             idx;
             value = old;
             loc;
             kind = Event.Atomic;
             spin = spin_tags m t loc;
           });
      if old = eval t expect then begin
        let v = eval t new_ in
        mem_set m key v;
        emit m
          (Event.Write
             {
               tid;
               base = base_name m id;
               base_id = id;
               idx;
               value = v;
               loc;
               kind = Event.Atomic;
             });
        set_reg t d 1
      end
      else set_reg t d 0;
      advance t
  | Rmw (d, op, a, arg) ->
      let loc = cur_loc t in
      let ((id, idx) as key) = resolve_id m t a in
      let old = mem_get m key in
      emit m
        (Event.Read
           {
             tid;
             base = base_name m id;
             base_id = id;
             idx;
             value = old;
             loc;
             kind = Event.Atomic;
             spin = spin_tags m t loc;
           });
      let v =
        match op with
        | Rmw_add -> old + eval t arg
        | Rmw_exchange -> eval t arg
        | Rmw_or -> old lor eval t arg
        | Rmw_and -> old land eval t arg
      in
      mem_set m key v;
      emit m
        (Event.Write
           {
             tid;
             base = base_name m id;
             base_id = id;
             idx;
             value = v;
             loc;
             kind = Event.Atomic;
           });
      set_reg t d old;
      advance t
  | Fence | Nop -> advance t
  | Yield ->
      Sched_ref.force_switch m.sched;
      advance t
  | Check (o, msg) ->
      if eval t o = 0 then m.checks <- (cur_loc t, msg) :: m.checks;
      advance t
  | Call (ret, name, args) ->
      let args = List.map (eval t) args in
      exec_call m t ret name args
  | Call_indirect (ret, target, args) ->
      let ti = eval t target in
      let table = m.cpl.prog.func_table in
      if ti < 0 || ti >= List.length table then
        fault t (Printf.sprintf "indirect call index %d out of range" ti)
      else
        let args = List.map (eval t) args in
        exec_call m t ret (List.nth table ti) args
  | Spawn (d, name, args) ->
      let args = List.map (eval t) args in
      let loc = cur_loc t in
      let child = spawn_thread m t name args in
      set_reg t d child;
      emit m (Event.Spawn_ev { parent = tid; child; loc });
      emit m (Event.Thread_start { tid = child });
      advance t
  | Join o -> (
      let target = eval t o in
      if target < 0 || target >= m.n_threads then
        fault t (Printf.sprintf "join of unknown thread %d" target)
      else
        match m.threads.(target) with
        | Some tt when tt.status = Done ->
            emit m (Event.Join_return { tid; target; loc = cur_loc t });
            advance t
        | Some _ -> t.status <- Blocked_join target
        | None -> fault t "join of never-spawned thread")
  | Lock a -> (
      let key = resolve m t a in
      let mu = mutex m key in
      match mu.owner with
      | None ->
          mu.owner <- Some tid;
          emit m (Event.Lock_acq { tid; base = fst key; idx = snd key; loc = cur_loc t });
          advance t
      | Some o when o = tid ->
          fault t (Printf.sprintf "recursive lock of %s[%d]" (fst key) (snd key))
      | Some _ ->
          Queue.push tid mu.mwaiters;
          t.status <- Blocked_lock { lkey = key; after_wait = None })
  | Unlock a ->
      let key = resolve m t a in
      release_mutex m t key;
      advance t
  | Cond_wait (cva, ma) ->
      let ckey = resolve m t cva in
      let mkey = resolve m t ma in
      let mu = mutex m mkey in
      (match mu.owner with
      | Some o when o = tid -> ()
      | Some _ | None -> fault t "cond_wait without holding the mutex");
      emit m
        (Event.Cv_wait_begin
           { tid; base = fst ckey; idx = snd ckey; loc = cur_loc t });
      release_mutex m t mkey;
      Queue.push (tid, mkey) (cv m ckey).cwaiters;
      t.status <- Blocked_cv { cv = ckey; mu = mkey }
  | Cond_signal a ->
      let key = resolve m t a in
      let had_waiter = not (Queue.is_empty (cv m key).cwaiters) in
      emit m
        (Event.Cv_signal
           {
             tid; base = fst key; idx = snd key; loc = cur_loc t;
             broadcast = false; had_waiter;
           });
      ignore (wake_cv_waiter m key);
      advance t
  | Cond_broadcast a ->
      let key = resolve m t a in
      let had_waiter = not (Queue.is_empty (cv m key).cwaiters) in
      emit m
        (Event.Cv_signal
           {
             tid; base = fst key; idx = snd key; loc = cur_loc t;
             broadcast = true; had_waiter;
           });
      while wake_cv_waiter m key do
        ()
      done;
      advance t
  | Barrier_init (a, n) ->
      let key = resolve m t a in
      let total = eval t n in
      if total <= 0 then fault t "barrier initialized with non-positive count";
      Hashtbl.replace m.barriers key { total; arrived = []; gen = 0 };
      advance t
  | Barrier_wait a -> (
      let key = resolve m t a in
      match Hashtbl.find_opt m.barriers key with
      | None -> fault t "barrier_wait before barrier_init"
      | Some bar ->
          emit m
            (Event.Barrier_arrive
               { tid; base = fst key; idx = snd key; generation = bar.gen; loc = cur_loc t });
          bar.arrived <- tid :: bar.arrived;
          if List.length bar.arrived = bar.total then begin
            let gen = bar.gen in
            let everyone = bar.arrived in
            bar.arrived <- [];
            bar.gen <- gen + 1;
            List.iter
              (fun wt ->
                let w = thread m wt in
                emit m
                  (Event.Barrier_pass
                     {
                       tid = wt;
                       base = fst key;
                       idx = snd key;
                       generation = gen;
                       loc = cur_loc w;
                     });
                if wt <> tid then begin
                  w.status <- Runnable;
                  advance w
                end)
              (List.rev everyone);
            advance t
          end
          else t.status <- Blocked_barrier key)
  | Sem_init (a, n) ->
      let key = resolve m t a in
      (sem m key).count <- eval t n;
      advance t
  | Sem_post a ->
      let key = resolve m t a in
      let s = sem m key in
      emit m (Event.Sem_post_ev { tid; base = fst key; idx = snd key; loc = cur_loc t });
      if Queue.is_empty s.swaiters then s.count <- s.count + 1
      else begin
        let wt = Queue.pop s.swaiters in
        let w = thread m wt in
        emit m
          (Event.Sem_acquire { tid = wt; base = fst key; idx = snd key; loc = cur_loc w });
        w.status <- Runnable;
        advance w
      end;
      advance t
  | Sem_wait a ->
      let key = resolve m t a in
      let s = sem m key in
      if s.count > 0 then begin
        s.count <- s.count - 1;
        emit m (Event.Sem_acquire { tid; base = fst key; idx = snd key; loc = cur_loc t });
        advance t
      end
      else begin
        Queue.push tid s.swaiters;
        t.status <- Blocked_sem key
      end

let exec_term m t =
  let f = cur_frame t in
  let goto_label lbl =
    match Hashtbl.find_opt f.ffn.cindex lbl with
    | Some i ->
        f.fblk <- i;
        f.fpc <- 0;
        spin_transition m t f i
    | None -> fault t (Printf.sprintf "unknown label %S" lbl)
  in
  match f.ffn.cblocks.(f.fblk).cterm with
  | Goto l -> goto_label l
  | Br (o, a, b) -> goto_label (if eval t o <> 0 then a else b)
  | Exit -> thread_exit m t
  | Ret o -> (
      let v = Option.map (eval t) o in
      spin_unwind m t f.fdepth;
      t.frames <- List.tl t.frames;
      match t.frames with
      | [] -> thread_exit m t
      | _ -> (
          match (f.fret, v) with
          | Some d, Some v -> set_reg t d v
          | Some d, None -> set_reg t d 0
          | None, _ -> ()))

let step m t =
  let f = cur_frame t in
  let b = f.ffn.cblocks.(f.fblk) in
  if f.fpc < Array.length b.cins then exec_instr m t b.cins.(f.fpc)
  else exec_term m t

(* ------------------------------------------------------------------ *)
(* Top-level loop                                                     *)

let inject_spurious_wakeup m =
  (* Pick some condition-variable waiter and wake it without a signal. *)
  let woken = ref false in
  Hashtbl.iter
    (fun key c ->
      if (not !woken) && not (Queue.is_empty c.cwaiters) then begin
        woken := true;
        ignore key;
        ignore (wake_cv_waiter m key)
      end)
    m.cvs

(* Fuel ran out: was anybody stuck inside an instrumented spinning read
   loop?  If so the exhaustion is a livelock — the paper's "spinning read
   loop never released by a counterpart write" — and we can name the loop
   and the condition variables it reads.  Benign exhaustion (long-running
   compute, no active spin context) stays [Fuel_exhausted]. *)
let livelock_sites m =
  match m.cfg.instrument with
  | None -> []
  | Some inst ->
      let sites = ref [] in
      for i = m.n_threads - 1 downto 0 do
        match m.threads.(i) with
        | Some t when t.status = Runnable -> (
            match t.spins with
            | c :: _ -> (
                match Instrument.find_spin inst c.sc_loop with
                | { Instrument.s_cand = cand; _ } ->
                    sites :=
                      {
                        sp_tid = t.tid;
                        sp_loop = c.sc_loop;
                        sp_loc =
                          {
                            lfunc = cand.Arde_cfg.Spin.c_func;
                            lblk = cand.Arde_cfg.Spin.c_header;
                            lidx = 0;
                          };
                        sp_bases = cand.Arde_cfg.Spin.c_bases;
                      }
                      :: !sites
                | exception Not_found -> ())
            | [] -> ())
        | Some _ | None -> ()
      done;
      !sites

let exhaustion_outcome m =
  match livelock_sites m with [] -> Fuel_exhausted | sites -> Livelock sites

let run cfg cpl =
  let mem = Array.make (Arde_tir.Intern.n_bases cpl.cintern) [||] in
  (* Iterating in declaration order means a duplicate declaration's last
     row wins, matching the historical Hashtbl.replace behaviour. *)
  List.iter
    (fun gl ->
      mem.(Arde_tir.Intern.id cpl.cintern gl.gname) <-
        Array.make gl.size gl.ginit)
    cpl.prog.globals;
  let m =
    {
      cfg;
      cpl;
      mem;
      threads = Array.make max_threads None;
      n_threads = 0;
      sched = Sched_ref.create cfg.policy ~seed:cfg.seed;
      rng = Arde_util.Prng.create (cfg.seed lxor 0x5bd1e995);
      mutexes = Hashtbl.create 8;
      cvs = Hashtbl.create 8;
      barriers = Hashtbl.create 4;
      sems = Hashtbl.create 4;
      serial = 0;
      checks = [];
      steps = 0;
      thread_steps = Array.make max_threads 0;
      last_tid = -1;
      context_switches = 0;
    }
  in
  let entry_fn =
    match Hashtbl.find_opt cpl.cfuncs cpl.centry with
    | Some fn -> fn
    | None -> internal "entry function missing"
  in
  let main = { tid = 0; frames = []; status = Runnable; spins = [] } in
  m.threads.(0) <- Some main;
  m.n_threads <- 1;
  push_frame main entry_fn [] None;
  spin_transition m main (cur_frame main) 0;
  m.cfg.observer (Event.Thread_start { tid = 0 });
  let outcome = ref None in
  while !outcome = None do
    let runnable = ref [] in
    for i = m.n_threads - 1 downto 0 do
      match m.threads.(i) with
      | Some t when t.status = Runnable -> runnable := i :: !runnable
      | Some _ | None -> ()
    done;
    (match !runnable with
    | [] ->
        let blocked = ref [] in
        for i = m.n_threads - 1 downto 0 do
          match m.threads.(i) with
          | Some t when t.status <> Done && t.status <> Runnable ->
              blocked := i :: !blocked
          | Some _ | None -> ()
        done;
        outcome := Some (if !blocked = [] then Finished else Deadlock !blocked)
    | runnable ->
        if m.steps >= cfg.fuel then outcome := Some (exhaustion_outcome m)
        else begin
          m.steps <- m.steps + 1;
          if cfg.spurious_wakeups && Arde_util.Prng.int m.rng 256 = 0 then
            inject_spurious_wakeup m;
          let tid = Sched_ref.pick m.sched ~runnable in
          m.thread_steps.(tid) <- m.thread_steps.(tid) + 1;
          if tid <> m.last_tid then begin
            if m.last_tid >= 0 then m.context_switches <- m.context_switches + 1;
            m.last_tid <- tid
          end;
          let t = thread m tid in
          try step m t
          with Fault_exn (floc, msg) ->
            outcome := Some (Fault { ftid = tid; floc; msg })
        end);
    ()
  done;
  let outcome = Option.get !outcome in
  (* Rebuild the string-keyed view of final memory for result consumers;
     rows are shared with the machine, not copied. *)
  let memory = Hashtbl.create 16 in
  List.iter
    (fun gl ->
      Hashtbl.replace memory gl.gname
        m.mem.(Arde_tir.Intern.id cpl.cintern gl.gname))
    cpl.prog.globals;
  {
    outcome;
    steps = m.steps;
    threads_spawned = m.n_threads;
    check_failures = List.rev m.checks;
    memory;
    thread_steps = Array.sub m.thread_steps 0 m.n_threads;
    context_switches = m.context_switches;
  }

let run_program cfg prog = run cfg (compile prog)
