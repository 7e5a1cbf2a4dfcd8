(* The interpreting machine, compiled-representation edition.

   The semantics are pinned by trace identity: for every (program, policy,
   seed, fuel, perturbation) this machine must reproduce the event
   sequence of the frozen {!Machine_ref} bit for bit — the golden fixtures
   in [test/fixtures/machine_traces.txt] are the contract, and
   [test_machine_diff] re-checks them after every change here.

   What changed relative to the reference is *where work happens*, not
   what work happens.  [compile] now pre-resolves everything the validator
   already guarantees: registers become dense integer slots into a
   per-frame [int array] (names survive only for fault messages), direct
   call and spawn targets become [cfunc] pointers, branch labels become
   block indices, and every address operand carries its interned base id.
   Globals live in one [int array] per base; mutexes, condition variables,
   barriers and semaphores are addressed by flat cell number
   (base offset + index) into per-kind tables.  Source locations are
   materialized once per block at compile time and shared by every event.

   The payoff is a steady-state step that allocates nothing: no
   per-access string hashing, no tuple keys, no [option] or list churn —
   and when the observer is the default discarding one, no event
   construction either.  Scheduling is O(1) in the thread count: the
   runnable buffer is rebuilt only after a status change or a spawn, and
   {!Sched.pick} continues a burst without scanning it.  The
   [machine-diff] tests assert the zero-allocation property with [Gc]
   counters at 1 and 16 threads; [bench gates] times this machine
   against the frozen reference and its 32-thread step against its
   2-thread step. *)

open Arde_tir.Types
module Instrument = Arde_cfg.Instrument

type config = {
  policy : Sched.policy;
  seed : int;
  fuel : int;
  instrument : Instrument.t option;
  spurious_wakeups : bool;
  observer : Observer.t;
}

let default_config =
  {
    policy = Sched.Chunked 6;
    seed = 1;
    fuel = 2_000_000;
    instrument = None;
    spurious_wakeups = false;
    observer = Observer.none;
  }

type spin_site = {
  sp_tid : int;
  sp_loop : int;
  sp_loc : loc;
  sp_bases : string list;
}

type outcome =
  | Finished
  | Deadlock of int list
  | Fuel_exhausted
  | Livelock of spin_site list
  | Fault of { ftid : int; floc : loc; msg : string }

type result = {
  outcome : outcome;
  steps : int;
  threads_spawned : int;
  check_failures : (loc * string) list;
  memory : (string, int array) Hashtbl.t;
  thread_steps : int array; (* instructions executed per thread *)
  context_switches : int;
}

exception Fault_exn of loc * string
exception Internal_violation of string

(* ------------------------------------------------------------------ *)
(* Compiled representation                                            *)

(* Register operands are slot numbers into the frame's register file;
   addresses carry their interned base id so the hot path never touches a
   string.  [ca_base] is kept only for fault messages and event fields. *)
type coperand = Cimm of int | Creg of int

type caddr = { ca_base : string; ca_id : int; ca_index : coperand }

type cinstr =
  | CMov of int * coperand
  | CBinop of int * binop * coperand * coperand
  | CCmp of int * cmpop * coperand * coperand
  | CLoad of int * caddr
  | CStore of caddr * coperand
  | CCas of int * caddr * coperand * coperand
  | CRmw of int * rmw_op * caddr * coperand
  | CNop (* Fence and Nop: both just advance *)
  | CYield
  | CCheck of coperand * string
  | CCall of cfunc * coperand array * int (* callee, args, ret slot or -1 *)
  | CCall_indirect of int * coperand * coperand array
  | CSpawn of int * cfunc * coperand array
  | CJoin of coperand
  | CLock of caddr
  | CUnlock of caddr
  | CCond_wait of caddr * caddr
  | CCond_signal of caddr
  | CCond_broadcast of caddr
  | CBarrier_init of caddr * coperand
  | CBarrier_wait of caddr
  | CSem_init of caddr * coperand
  | CSem_post of caddr
  | CSem_wait of caddr

and cterm =
  | CGoto of int
  | CBr of coperand * int * int
  | CRet of coperand option
  | CExit

and cblock = {
  clbl : label;
  cins : cinstr array;
  cterm : cterm;
  clocs : loc array;
      (* length [Array.length cins + 1]; the last entry (lidx = -1) is the
         terminator's location.  Shared by every event at that site. *)
}

and cfunc = {
  cfid : int; (* index into [compiled.cfuncs] *)
  cfname : string;
  cnparams : int; (* parameters occupy slots 0 .. cnparams-1 *)
  mutable cnregs : int;
  mutable crnames : string array; (* slot -> source register name, for faults *)
  mutable cblocks : cblock array;
      (* these three are filled once every shell exists, so calls can
         point at their callee *)
}

(* Per-instrumentation spin cache: every query the reference machine made
   through {!Instrument}'s string-keyed tables, precomputed per (function,
   block[, pc]) as int arrays so the hot path neither hashes strings nor
   allocates an [option].  Immutable once built, hence freely shared
   across the domains of a parallel multi-seed run. *)
type icache = {
  ic_header : int array array; (* fid -> blk -> loop id, or -1 *)
  ic_inloop : int array array array; (* fid -> blk -> ids of containing loops *)
  ic_tags : int array array array array;
      (* fid -> blk -> pc -> condition-load loop ids *)
}

type compiled = {
  prog : program;
  cfuncs : cfunc array; (* in declaration order; cfid = index *)
  centry : cfunc;
  cftable : cfunc array; (* indirect-call table, pre-resolved *)
  cintern : Arde_tir.Intern.t;
  td_id : int; (* interned id of [thread_done_global] *)
  td_declared : bool;
  coffsets : int array; (* base id -> first flat cell number *)
  ctotal : int; (* total flat cells across all bases *)
  ccell_base : string array; (* flat cell -> interned base name *)
  ccell_idx : int array; (* flat cell -> index within the base *)
  cicache : (Instrument.t * icache) list Atomic.t;
      (* icaches built by previous runs, keyed by physical identity of the
         instrumentation (compile once, run many seeds) *)
}

(* One pass over a validated program.  Function shells come first so a
   call can point straight at its callee; then each function's blocks
   are translated in order, and a register gets its slot at its first
   occurrence (parameters first, then textual order, destination before
   operands), so one lookup per occurrence numbers and resolves it.  The
   validator has already rejected unknown labels, unknown or
   arity-mismatched direct callees/spawnees and undeclared globals, so
   those runtime faults disappear here. *)
let compile_valid (valid : Arde_tir.Validate.valid) =
  let prog = (valid :> program) in
  let cintern = Arde_tir.Intern.of_program prog in
  let by_name = Hashtbl.create 16 in
  let shells =
    List.mapi
      (fun fid (f : func) ->
        let shell =
          {
            cfid = fid;
            cfname = f.fname;
            cnparams = List.length f.params;
            cnregs = 0;
            crnames = [||];
            cblocks = [||];
          }
        in
        Hashtbl.replace by_name f.fname shell;
        (shell, f))
      prog.funcs
  in
  let fn_of name = Hashtbl.find by_name name in
  List.iter
    (fun (shell, (f : func)) ->
      (* a register's id is its slot *)
      let slots = Arde_tir.Names.create 64 in
      let slot r = Arde_tir.Names.intern slots r 0 (String.length r) in
      List.iter (fun r -> ignore (slot r)) f.params;
      (* labels are unique, so a label's id is its block's index *)
      let blocks = Array.of_list f.blocks in
      let labels = Arde_tir.Names.create (Array.length blocks) in
      Array.iter
        (fun (b : block) ->
          ignore (Arde_tir.Names.intern labels b.lbl 0 (String.length b.lbl)))
        blocks;
      let label l = Arde_tir.Names.find labels l 0 (String.length l) in
      let cop = function Imm n -> Cimm n | Reg r -> Creg (slot r) in
      let ca (a : addr) =
        {
          ca_base = a.base;
          ca_id = Arde_tir.Intern.id cintern a.base;
          ca_index = cop a.index;
        }
      in
      let ret_slot = function None -> -1 | Some r -> slot r in
      (* [List.map] applies in list order *)
      let args_of args = Array.of_list (List.map cop args) in
      let tr = function
        | Mov (d, o) ->
            let d = slot d in
            CMov (d, cop o)
        | Binop (d, op, a, b) ->
            let d = slot d in
            let a = cop a in
            CBinop (d, op, a, cop b)
        | Cmp (d, op, a, b) ->
            let d = slot d in
            let a = cop a in
            CCmp (d, op, a, cop b)
        | Load (d, a) ->
            let d = slot d in
            CLoad (d, ca a)
        | Store (a, o) ->
            let a = ca a in
            CStore (a, cop o)
        | Cas (d, a, e, n) ->
            let d = slot d in
            let a = ca a in
            let e = cop e in
            CCas (d, a, e, cop n)
        | Rmw (d, op, a, o) ->
            let d = slot d in
            let a = ca a in
            CRmw (d, op, a, cop o)
        | Fence | Nop -> CNop
        | Yield -> CYield
        | Check (o, msg) -> CCheck (cop o, msg)
        | Call (ret, name, args) ->
            let r = ret_slot ret in
            CCall (fn_of name, args_of args, r)
        | Call_indirect (ret, tgt, args) ->
            let r = ret_slot ret in
            let t = cop tgt in
            CCall_indirect (r, t, args_of args)
        | Spawn (d, name, args) ->
            let d = slot d in
            CSpawn (d, fn_of name, args_of args)
        | Join o -> CJoin (cop o)
        | Lock a -> CLock (ca a)
        | Unlock a -> CUnlock (ca a)
        | Cond_wait (a, b) ->
            let a = ca a in
            CCond_wait (a, ca b)
        | Cond_signal a -> CCond_signal (ca a)
        | Cond_broadcast a -> CCond_broadcast (ca a)
        | Barrier_init (a, n) ->
            let a = ca a in
            CBarrier_init (a, cop n)
        | Barrier_wait a -> CBarrier_wait (ca a)
        | Sem_init (a, n) ->
            let a = ca a in
            CSem_init (a, cop n)
        | Sem_post a -> CSem_post (ca a)
        | Sem_wait a -> CSem_wait (ca a)
      in
      let trt = function
        | Goto l -> CGoto (label l)
        | Br (o, a, b) ->
            let o = cop o in
            CBr (o, label a, label b)
        | Ret o -> CRet (Option.map cop o)
        | Exit -> CExit
      in
      (* [Array.map] too *)
      shell.cblocks <-
        Array.map
          (fun (b : block) ->
            let cins = Array.of_list (List.map tr b.ins) in
            let n = Array.length cins in
            let clocs =
              Array.init (n + 1) (fun i ->
                  { lfunc = f.fname; lblk = b.lbl; lidx = (if i < n then i else -1) })
            in
            { clbl = b.lbl; cins; cterm = trt b.term; clocs })
          blocks;
      shell.cnregs <- Arde_tir.Names.count slots;
      shell.crnames <- Array.init shell.cnregs (Arde_tir.Names.name slots))
    shells;
  let cfuncs = Array.of_list (List.map fst shells) in
  (* Flat cell numbering for synchronization state: every (base, index)
     pair gets one cell.  Offsets use the interned extent, which is the
     maximum over duplicate declarations, so any index that survives the
     bounds check (against the live row) fits. *)
  let nb = Arde_tir.Intern.n_bases cintern in
  let coffsets = Array.make nb 0 in
  let total = ref 0 in
  for id = 0 to nb - 1 do
    coffsets.(id) <- !total;
    total := !total + Arde_tir.Intern.size cintern id
  done;
  let ctotal = !total in
  let ccell_base = Array.make ctotal "" in
  let ccell_idx = Array.make ctotal 0 in
  for id = 0 to nb - 1 do
    let name = Arde_tir.Intern.name cintern id in
    let off = coffsets.(id) in
    for k = 0 to Arde_tir.Intern.size cintern id - 1 do
      ccell_base.(off + k) <- name;
      ccell_idx.(off + k) <- k
    done
  done;
  let td_id = Arde_tir.Intern.id cintern thread_done_global in
  {
    prog;
    cfuncs;
    centry = fn_of prog.entry;
    cftable = Array.of_list (List.map fn_of prog.func_table);
    cintern;
    td_id;
    td_declared = Arde_tir.Intern.declared cintern td_id;
    coffsets;
    ctotal;
    ccell_base;
    ccell_idx;
    cicache = Atomic.make [];
  }

let compile prog = compile_valid (Arde_tir.Validate.validate_exn prog)

let extent (cpl : compiled) base_id =
  if base_id >= 0 && base_id < Arde_tir.Intern.n_bases cpl.cintern then
    Arde_tir.Intern.size cpl.cintern base_id
  else 0

(* ------------------------------------------------------------------ *)
(* Machine state                                                      *)

type frame = {
  ffn : cfunc;
  mutable fblk : int; (* block index *)
  mutable fpc : int; (* instruction index within the block *)
  fregs : int array; (* register file, slot-indexed *)
  fdef : Bytes.t; (* '\000' = slot not yet assigned *)
  fret : int; (* caller slot receiving our return value, or -1 *)
  fdepth : int;
}

type spin_ctx = { sc_loop : int; sc_serial : int; sc_depth : int }

type status =
  | Runnable
  | Blocked_lock of int * int (* mutex cell, after-wait cv cell or -1 *)
  | Blocked_cv of int * int (* cv cell, mutex cell *)
  | Blocked_barrier of int
  | Blocked_sem of int
  | Blocked_join of int
  | Done

type thread = {
  tid : int;
  mutable frames : frame list; (* head is the active frame *)
  mutable status : status;
  mutable spins : spin_ctx list; (* head is the innermost active context *)
}

type mutex_state = { mutable owner : int (* -1 = free *); mwaiters : int Queue.t }
type cv_state = { cwaiters : (int * int) Queue.t (* waiter tid, mutex cell *) }

type barrier_state = {
  btotal : int;
  border : int array; (* arrival order; only the first [bn] are live *)
  mutable bn : int;
  mutable bgen : int;
}

type sem_state = { mutable count : int; swaiters : int Queue.t }

(* A broken machine invariant: never the interpreted program's fault, and
   never recoverable within the run.  Escapes [run] as a structured
   exception so harnesses can report "the detector crashed" instead of
   dying on a bare [Invalid_argument]. *)
let internal msg = raise (Internal_violation ("Machine: " ^ msg))

type machine = {
  cfg : config;
  cpl : compiled;
  quiet : bool; (* observer is the default discarding one: skip events *)
  mem : int array array; (* rows indexed by interned base id *)
  threads : thread option array;
  mutable n_threads : int;
  sched : Sched.t;
  rng : Arde_util.Prng.t; (* spurious wakeups only *)
  mutexes : mutex_state option array; (* all four tables: flat cell-indexed *)
  cvs : cv_state option array;
  barriers : barrier_state option array;
  sems : sem_state option array;
  cvs_named : (string * int, int) Hashtbl.t;
      (* (base, idx) -> cv cell, inserted on first touch.  Exists solely so
         [inject_spurious_wakeup] scans waiters in the exact iteration
         order of the reference machine's name-keyed table. *)
  runnable : int array; (* ascending runnable tids, kept between steps *)
  mutable n_runnable : int;
  mutable stale : bool;
      (* a status changed or a thread was spawned since the last rebuild *)
  ic : icache option;
  mutable serial : int; (* spin-context serial counter *)
  mutable checks : (loc * string) list;
  mutable steps : int;
  thread_steps : int array;
  mutable last_tid : int;
  mutable context_switches : int;
}

let runtime_exit_loc tid = { lfunc = "<runtime>"; lblk = "thread-exit"; lidx = tid }
let emit m ev = m.cfg.observer ev

(* Every status change goes through here, so the runnable buffer is
   rebuilt only after a transition, not on every step. *)
let set_status m t s =
  t.status <- s;
  m.stale <- true

let thread m tid =
  match m.threads.(tid) with Some t -> t | None -> internal "dead thread id"

let cur_frame t =
  match t.frames with f :: _ -> f | [] -> internal "thread has no frame"

(* Pre-materialized location of the frame's current instruction (or
   terminator); shared, never allocated per step. *)
let iloc (f : frame) = f.ffn.cblocks.(f.fblk).clocs.(f.fpc)
let cur_loc t = iloc (cur_frame t)
let fault t msg = raise (Fault_exn (cur_loc t, msg))

let reg_value t (f : frame) s =
  if Bytes.unsafe_get f.fdef s = '\000' then
    fault t (Printf.sprintf "register %%%s read before assignment" f.ffn.crnames.(s))
  else Array.unsafe_get f.fregs s

let ceval t f = function Cimm n -> n | Creg s -> reg_value t f s

let set_slot (f : frame) s v =
  Array.unsafe_set f.fregs s v;
  Bytes.unsafe_set f.fdef s '\001'

(* Evaluate and bounds-check an address; returns the index within the
   base.  The base itself was resolved at compile time (unknown globals
   are statically impossible).  The bounds check is against the live row,
   whose extent can be smaller than the interned one under duplicate
   declarations — exactly like the reference. *)
let resolve_idx m t f (a : caddr) =
  let idx = ceval t f a.ca_index in
  let row = m.mem.(a.ca_id) in
  if idx < 0 || idx >= Array.length row then
    fault t
      (Printf.sprintf "index %d out of bounds for %s[%d]" idx a.ca_base
         (Array.length row))
  else idx

let cell_of m (a : caddr) idx = m.cpl.coffsets.(a.ca_id) + idx
let cell_base m cell = m.cpl.ccell_base.(cell)
let cell_idx m cell = m.cpl.ccell_idx.(cell)

let mutex_at m cell =
  match m.mutexes.(cell) with
  | Some s -> s
  | None ->
      let s = { owner = -1; mwaiters = Queue.create () } in
      m.mutexes.(cell) <- Some s;
      s

let cv_at m cell =
  match m.cvs.(cell) with
  | Some s -> s
  | None ->
      let s = { cwaiters = Queue.create () } in
      m.cvs.(cell) <- Some s;
      Hashtbl.replace m.cvs_named (cell_base m cell, cell_idx m cell) cell;
      s

let sem_at m cell =
  match m.sems.(cell) with
  | Some s -> s
  | None ->
      let s = { count = 0; swaiters = Queue.create () } in
      m.sems.(cell) <- Some s;
      s

(* ------------------------------------------------------------------ *)
(* Spin-context bookkeeping                                           *)

let no_ids : int array = [||]

let build_icache (cpl : compiled) inst =
  let nf = Array.length cpl.cfuncs in
  let header = Array.make nf [||] in
  let inloop = Array.make nf [||] in
  let tags = Array.make nf [||] in
  Array.iteri
    (fun fid fn ->
      let nb = Array.length fn.cblocks in
      header.(fid) <- Array.make nb (-1);
      inloop.(fid) <- Array.make nb no_ids;
      tags.(fid) <- Array.make nb [||];
      Array.iteri
        (fun bi b ->
          (match Instrument.header_at inst ~fname:fn.cfname ~lbl:b.clbl with
          | Some id -> header.(fid).(bi) <- id
          | None -> ());
          (match Instrument.loops_containing inst ~fname:fn.cfname ~lbl:b.clbl with
          | [] -> ()
          | ids -> inloop.(fid).(bi) <- Array.of_list ids);
          tags.(fid).(bi) <-
            Array.init (Array.length b.cins) (fun pc ->
                match Instrument.marked_loops_at inst b.clocs.(pc) with
                | [] -> no_ids
                | ids -> Array.of_list ids))
        fn.cblocks)
    cpl.cfuncs;
  { ic_header = header; ic_inloop = inloop; ic_tags = tags }

(* The cache is built once per (compiled, instrumentation) pair and
   remembered on the compiled program — a multi-seed sweep pays for it
   once, not per run.  Lock-free: concurrent domains may race to build
   the same (immutable, identical) cache; the losing build is dropped. *)
let icache_for (cpl : compiled) inst =
  let rec find = function
    | (i, c) :: rest -> if i == inst then Some c else find rest
    | [] -> None
  in
  match find (Atomic.get cpl.cicache) with
  | Some c -> c
  | None ->
      let c = build_icache cpl inst in
      let rec publish () =
        let cur = Atomic.get cpl.cicache in
        match find cur with
        | Some c' -> c' (* another domain won the race *)
        | None ->
            if
              List.length cur < 8
              && not (Atomic.compare_and_set cpl.cicache cur ((inst, c) :: cur))
            then publish ()
            else c
      in
      publish ()

(* The icache as plain arrays, for callers that time or inspect the
   build apart from a run. *)
type spin_cache = {
  sc_header : int array array;
  sc_inloop : int array array array;
  sc_tags : int array array array array;
}

let export_spin_cache (cpl : compiled) inst =
  let c = icache_for cpl inst in
  { sc_header = c.ic_header; sc_inloop = c.ic_inloop; sc_tags = c.ic_tags }

(* Top-level recursion (not an inner [let rec]): an inner recursive
   closure would be heap-allocated at every call on the non-flambda
   compiler, and this runs on the per-step spin path.  The same shape is
   used for every hot-path helper below. *)
let rec arr_mem_from (a : int array) x i =
  i < Array.length a && (Array.unsafe_get a i = x || arr_mem_from a x (i + 1))

let arr_mem (a : int array) x = arr_mem_from a x 0

let spin_pop m t ctx =
  t.spins <- List.tl t.spins;
  if not m.quiet then
    emit m (Event.Spin_exit { tid = t.tid; loop_id = ctx.sc_loop; ctx = ctx.sc_serial })

(* Close contexts of [f]'s depth whose loop does not contain the block
   whose containing-loops array is [containing]. *)
let rec spin_close m t (f : frame) containing =
  match t.spins with
  | c :: _ when c.sc_depth = f.fdepth && not (arr_mem containing c.sc_loop) ->
      spin_pop m t c;
      spin_close m t f containing
  | _ -> ()

(* Called whenever control in frame [f] lands on (the start of) block
   [blk]: close contexts whose loop no longer contains the block, then
   open one if the block is a marked loop header.  In the steady state —
   spinning around inside one loop — this touches two int-array cells and
   allocates nothing. *)
let spin_transition m t (f : frame) blk =
  match m.ic with
  | None -> ()
  | Some ic ->
      let fid = f.ffn.cfid in
      let containing = ic.ic_inloop.(fid).(blk) in
      spin_close m t f containing;
      let id = ic.ic_header.(fid).(blk) in
      if id >= 0 then begin
        let already =
          match t.spins with
          | c :: _ -> c.sc_loop = id && c.sc_depth = f.fdepth
          | [] -> false
        in
        if not already then begin
          m.serial <- m.serial + 1;
          t.spins <-
            { sc_loop = id; sc_serial = m.serial; sc_depth = f.fdepth } :: t.spins;
          if not m.quiet then
            emit m (Event.Spin_enter { tid = t.tid; loop_id = id; ctx = m.serial })
        end
      end

(* Close every context belonging to a popped frame (loop exited by
   returning out of the function). *)
let rec spin_unwind m t depth =
  match t.spins with
  | c :: _ when c.sc_depth >= depth ->
      spin_pop m t c;
      spin_unwind m t depth
  | _ -> ()

(* Only reached from event-emitting (non-quiet) read sites. *)
let spin_tags m t (f : frame) pc =
  match m.ic with
  | None -> []
  | Some ic -> (
      match ic.ic_tags.(f.ffn.cfid).(f.fblk).(pc) with
      | [||] -> []
      | ids ->
          List.filter_map
            (fun c ->
              if arr_mem ids c.sc_loop then Some (c.sc_loop, c.sc_serial) else None)
            t.spins)

(* ------------------------------------------------------------------ *)
(* Thread control                                                     *)

let advance t = (cur_frame t).fpc <- (cur_frame t).fpc + 1

(* Build a callee/child frame, evaluating the argument operands (in the
   caller's frame, left to right) straight into the parameter slots: no
   intermediate list, no quadratic [List.nth] binding. *)
let make_frame t (fn : cfunc) (caller : frame) (args : coperand array) fret fdepth =
  let fregs = Array.make fn.cnregs 0 in
  let fdef = Bytes.make fn.cnregs '\000' in
  for j = 0 to Array.length args - 1 do
    fregs.(j) <- ceval t caller args.(j);
    Bytes.unsafe_set fdef j '\001'
  done;
  { ffn = fn; fblk = 0; fpc = 0; fregs; fdef; fret; fdepth }

let wake_joiners m target =
  Array.iter
    (function
      | Some w -> (
          match w.status with
          | Blocked_join tg when tg = target ->
              set_status m w Runnable;
              if not m.quiet then
                emit m (Event.Join_return { tid = w.tid; target; loc = cur_loc w });
              advance w
          | _ -> ())
      | None -> ())
    m.threads

let thread_exit m t =
  set_status m t Done;
  spin_unwind m t 0;
  t.frames <- [];
  (* The kernel-visible "thread is gone" store: the cell lowered joins
     spin on.  Attributed to the exiting thread like a real runtime's
     final flag write. *)
  if m.cpl.td_declared then m.mem.(m.cpl.td_id).(t.tid) <- 1;
  if not m.quiet then begin
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
    emit m (Event.Thread_exit { tid = t.tid })
  end;
  wake_joiners m t.tid

(* Grant the mutex at [cell] to waiting thread [w], completing its pending
   Lock (or the reacquisition leg of a Cond_wait when [aw_cell] >= 0). *)
let grant_mutex m cell w aw_cell =
  let mu = mutex_at m cell in
  mu.owner <- w.tid;
  if not m.quiet then begin
    if aw_cell >= 0 then
      emit m
        (Event.Cv_wait_return
           {
             tid = w.tid;
             base = cell_base m aw_cell;
             idx = cell_idx m aw_cell;
             loc = cur_loc w;
           });
    emit m
      (Event.Lock_acq
         {
           tid = w.tid;
           base = cell_base m cell;
           idx = cell_idx m cell;
           loc = cur_loc w;
         })
  end;
  set_status m w Runnable;
  advance w

let release_mutex m t cell =
  let mu = mutex_at m cell in
  if mu.owner <> t.tid then
    if mu.owner >= 0 then
      fault t
        (Printf.sprintf "unlock of %s[%d] by non-owner" (cell_base m cell)
           (cell_idx m cell))
    else
      fault t
        (Printf.sprintf "unlock of free mutex %s[%d]" (cell_base m cell)
           (cell_idx m cell));
  if not m.quiet then
    emit m
      (Event.Lock_rel
         { tid = t.tid; base = cell_base m cell; idx = cell_idx m cell; loc = cur_loc t });
  if Queue.is_empty mu.mwaiters then mu.owner <- -1
  else begin
    let wt = Queue.pop mu.mwaiters in
    let w = thread m wt in
    match w.status with
    | Blocked_lock (_, aw_cell) -> grant_mutex m cell w aw_cell
    | _ -> internal "mutex waiter in wrong state"
  end

let wake_cv_waiter m c_cell =
  let c = cv_at m c_cell in
  if Queue.is_empty c.cwaiters then false
  else begin
    let wt, m_cell = Queue.pop c.cwaiters in
    let w = thread m wt in
    let mu = mutex_at m m_cell in
    if mu.owner < 0 then grant_mutex m m_cell w c_cell
    else begin
      set_status m w (Blocked_lock (m_cell, c_cell));
      Queue.push wt mu.mwaiters
    end;
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

let enter_call m t (f : frame) fn args ret =
  let nf = make_frame t fn f args ret (f.fdepth + 1) in
  f.fpc <- f.fpc + 1;
  t.frames <- nf :: t.frames;
  spin_transition m t nf 0

let exec_instr m t (f : frame) i =
  let tid = t.tid in
  match i with
  | CMov (d, o) ->
      set_slot f d (ceval t f o);
      f.fpc <- f.fpc + 1
  | CBinop (d, op, a, b) ->
      (* operand [b] first: the reference evaluated the two [eval] calls
         as OCaml function arguments, i.e. right to left *)
      let vb = ceval t f b in
      let va = ceval t f a in
      set_slot f d (binop_eval t op va vb);
      f.fpc <- f.fpc + 1
  | CCmp (d, op, a, b) ->
      let vb = ceval t f b in
      let va = ceval t f a in
      set_slot f d (cmp_eval op va vb);
      f.fpc <- f.fpc + 1
  | CLoad (d, a) ->
      let idx = resolve_idx m t f a in
      let v = m.mem.(a.ca_id).(idx) in
      if not m.quiet then
        emit m
          (Event.Read
             {
               tid;
               base = a.ca_base;
               base_id = a.ca_id;
               idx;
               value = v;
               loc = iloc f;
               kind = Event.Plain;
               spin = spin_tags m t f f.fpc;
             });
      set_slot f d v;
      f.fpc <- f.fpc + 1
  | CStore (a, o) ->
      let idx = resolve_idx m t f a in
      let v = ceval t f o in
      m.mem.(a.ca_id).(idx) <- v;
      if not m.quiet then
        emit m
          (Event.Write
             {
               tid;
               base = a.ca_base;
               base_id = a.ca_id;
               idx;
               value = v;
               loc = iloc f;
               kind = Event.Plain;
             });
      f.fpc <- f.fpc + 1
  | CCas (d, a, expect, new_) ->
      let idx = resolve_idx m t f a in
      let old = m.mem.(a.ca_id).(idx) in
      if not m.quiet then
        emit m
          (Event.Read
             {
               tid;
               base = a.ca_base;
               base_id = a.ca_id;
               idx;
               value = old;
               loc = iloc f;
               kind = Event.Atomic;
               spin = spin_tags m t f f.fpc;
             });
      if old = ceval t f expect then begin
        let v = ceval t f new_ in
        m.mem.(a.ca_id).(idx) <- v;
        if not m.quiet then
          emit m
            (Event.Write
               {
                 tid;
                 base = a.ca_base;
                 base_id = a.ca_id;
                 idx;
                 value = v;
                 loc = iloc f;
                 kind = Event.Atomic;
               });
        set_slot f d 1
      end
      else set_slot f d 0;
      f.fpc <- f.fpc + 1
  | CRmw (d, op, a, arg) ->
      let idx = resolve_idx m t f a in
      let old = m.mem.(a.ca_id).(idx) in
      if not m.quiet then
        emit m
          (Event.Read
             {
               tid;
               base = a.ca_base;
               base_id = a.ca_id;
               idx;
               value = old;
               loc = iloc f;
               kind = Event.Atomic;
               spin = spin_tags m t f f.fpc;
             });
      let v =
        match op with
        | Rmw_add -> old + ceval t f arg
        | Rmw_exchange -> ceval t f arg
        | Rmw_or -> old lor ceval t f arg
        | Rmw_and -> old land ceval t f arg
      in
      m.mem.(a.ca_id).(idx) <- v;
      if not m.quiet then
        emit m
          (Event.Write
             {
               tid;
               base = a.ca_base;
               base_id = a.ca_id;
               idx;
               value = v;
               loc = iloc f;
               kind = Event.Atomic;
             });
      set_slot f d old;
      f.fpc <- f.fpc + 1
  | CNop -> f.fpc <- f.fpc + 1
  | CYield ->
      Sched.force_switch m.sched;
      f.fpc <- f.fpc + 1
  | CCheck (o, msg) ->
      if ceval t f o = 0 then m.checks <- (iloc f, msg) :: m.checks;
      f.fpc <- f.fpc + 1
  | CCall (fn, args, ret) -> enter_call m t f fn args ret
  | CCall_indirect (ret, tgt, args) ->
      let ti = ceval t f tgt in
      if ti < 0 || ti >= Array.length m.cpl.cftable then
        fault t (Printf.sprintf "indirect call index %d out of range" ti)
      else begin
        let fn = m.cpl.cftable.(ti) in
        if Array.length args <> fn.cnparams then begin
          (* the reference evaluated every argument (left to right) before
             discovering the arity mismatch; keep any argument fault
             first *)
          for j = 0 to Array.length args - 1 do
            ignore (ceval t f args.(j))
          done;
          fault t (Printf.sprintf "arity mismatch calling %S" fn.cfname)
        end
        else enter_call m t f fn args ret
      end
  | CSpawn (d, fn, args) ->
      let nf = make_frame t fn f args (-1) 0 in
      if m.n_threads >= max_threads then fault t "thread limit exceeded";
      let child_tid = m.n_threads in
      m.n_threads <- m.n_threads + 1;
      let child =
        { tid = child_tid; frames = [ nf ]; status = Runnable; spins = [] }
      in
      m.threads.(child_tid) <- Some child;
      m.stale <- true;
      spin_transition m child nf 0;
      set_slot f d child_tid;
      if not m.quiet then begin
        emit m (Event.Spawn_ev { parent = tid; child = child_tid; loc = iloc f });
        emit m (Event.Thread_start { tid = child_tid })
      end;
      f.fpc <- f.fpc + 1
  | CJoin o -> (
      let target = ceval t f o in
      if target < 0 || target >= m.n_threads then
        fault t (Printf.sprintf "join of unknown thread %d" target)
      else
        match m.threads.(target) with
        | Some tt when tt.status = Done ->
            if not m.quiet then
              emit m (Event.Join_return { tid; target; loc = iloc f });
            f.fpc <- f.fpc + 1
        | Some _ -> set_status m t (Blocked_join target)
        | None -> fault t "join of never-spawned thread")
  | CLock a ->
      let idx = resolve_idx m t f a in
      let cell = cell_of m a idx in
      let mu = mutex_at m cell in
      if mu.owner < 0 then begin
        mu.owner <- tid;
        if not m.quiet then
          emit m (Event.Lock_acq { tid; base = a.ca_base; idx; loc = iloc f });
        f.fpc <- f.fpc + 1
      end
      else if mu.owner = tid then
        fault t (Printf.sprintf "recursive lock of %s[%d]" a.ca_base idx)
      else begin
        Queue.push tid mu.mwaiters;
        set_status m t (Blocked_lock (cell, -1))
      end
  | CUnlock a ->
      let idx = resolve_idx m t f a in
      release_mutex m t (cell_of m a idx);
      f.fpc <- f.fpc + 1
  | CCond_wait (cva, ma) ->
      let c_idx = resolve_idx m t f cva in
      let c_cell = cell_of m cva c_idx in
      let m_cell = cell_of m ma (resolve_idx m t f ma) in
      let mu = mutex_at m m_cell in
      if mu.owner <> tid then fault t "cond_wait without holding the mutex";
      if not m.quiet then
        emit m
          (Event.Cv_wait_begin { tid; base = cva.ca_base; idx = c_idx; loc = iloc f });
      release_mutex m t m_cell;
      Queue.push (tid, m_cell) (cv_at m c_cell).cwaiters;
      set_status m t (Blocked_cv (c_cell, m_cell))
  | CCond_signal a ->
      let idx = resolve_idx m t f a in
      let cell = cell_of m a idx in
      let had_waiter = not (Queue.is_empty (cv_at m cell).cwaiters) in
      if not m.quiet then
        emit m
          (Event.Cv_signal
             {
               tid;
               base = a.ca_base;
               idx;
               loc = iloc f;
               broadcast = false;
               had_waiter;
             });
      ignore (wake_cv_waiter m cell);
      f.fpc <- f.fpc + 1
  | CCond_broadcast a ->
      let idx = resolve_idx m t f a in
      let cell = cell_of m a idx in
      let had_waiter = not (Queue.is_empty (cv_at m cell).cwaiters) in
      if not m.quiet then
        emit m
          (Event.Cv_signal
             {
               tid;
               base = a.ca_base;
               idx;
               loc = iloc f;
               broadcast = true;
               had_waiter;
             });
      while wake_cv_waiter m cell do
        ()
      done;
      f.fpc <- f.fpc + 1
  | CBarrier_init (a, n) ->
      let idx = resolve_idx m t f a in
      let total = ceval t f n in
      if total <= 0 then fault t "barrier initialized with non-positive count";
      m.barriers.(cell_of m a idx) <-
        Some { btotal = total; border = Array.make total 0; bn = 0; bgen = 0 };
      f.fpc <- f.fpc + 1
  | CBarrier_wait a -> (
      let idx = resolve_idx m t f a in
      let cell = cell_of m a idx in
      match m.barriers.(cell) with
      | None -> fault t "barrier_wait before barrier_init"
      | Some bar ->
          if not m.quiet then
            emit m
              (Event.Barrier_arrive
                 { tid; base = a.ca_base; idx; generation = bar.bgen; loc = iloc f });
          (* O(1) arrival: stamp the slot, bump the counter *)
          bar.border.(bar.bn) <- tid;
          bar.bn <- bar.bn + 1;
          if bar.bn = bar.btotal then begin
            let gen = bar.bgen in
            let n = bar.bn in
            bar.bgen <- gen + 1;
            bar.bn <- 0;
            for i = 0 to n - 1 do
              let wt = bar.border.(i) in
              let w = thread m wt in
              if not m.quiet then
                emit m
                  (Event.Barrier_pass
                     {
                       tid = wt;
                       base = a.ca_base;
                       idx;
                       generation = gen;
                       loc = cur_loc w;
                     });
              if wt <> tid then begin
                set_status m w Runnable;
                advance w
              end
            done;
            f.fpc <- f.fpc + 1
          end
          else set_status m t (Blocked_barrier cell))
  | CSem_init (a, n) ->
      let idx = resolve_idx m t f a in
      let v = ceval t f n in
      (sem_at m (cell_of m a idx)).count <- v;
      f.fpc <- f.fpc + 1
  | CSem_post a ->
      let idx = resolve_idx m t f a in
      let cell = cell_of m a idx in
      let s = sem_at m cell in
      if not m.quiet then
        emit m (Event.Sem_post_ev { tid; base = a.ca_base; idx; loc = iloc f });
      if Queue.is_empty s.swaiters then s.count <- s.count + 1
      else begin
        let wt = Queue.pop s.swaiters in
        let w = thread m wt in
        if not m.quiet then
          emit m (Event.Sem_acquire { tid = wt; base = a.ca_base; idx; loc = cur_loc w });
        set_status m w Runnable;
        advance w
      end;
      f.fpc <- f.fpc + 1
  | CSem_wait a ->
      let idx = resolve_idx m t f a in
      let cell = cell_of m a idx in
      let s = sem_at m cell in
      if s.count > 0 then begin
        s.count <- s.count - 1;
        if not m.quiet then
          emit m (Event.Sem_acquire { tid; base = a.ca_base; idx; loc = iloc f });
        f.fpc <- f.fpc + 1
      end
      else begin
        Queue.push tid s.swaiters;
        set_status m t (Blocked_sem cell)
      end

let goto_block m t (f : frame) i =
  f.fblk <- i;
  f.fpc <- 0;
  spin_transition m t f i

let exec_term m t (f : frame) =
  match f.ffn.cblocks.(f.fblk).cterm with
  | CGoto i -> goto_block m t f i
  | CBr (o, a, b) -> goto_block m t f (if ceval t f o <> 0 then a else b)
  | CExit -> thread_exit m t
  | CRet o -> (
      (* evaluate before unwinding, like the reference *)
      let v = match o with Some op -> ceval t f op | None -> 0 in
      spin_unwind m t f.fdepth;
      t.frames <- List.tl t.frames;
      match t.frames with
      | [] -> thread_exit m t
      | nf :: _ -> if f.fret >= 0 then set_slot nf f.fret v)

let step m t =
  let f = cur_frame t in
  let b = f.ffn.cblocks.(f.fblk) in
  if f.fpc < Array.length b.cins then
    exec_instr m t f (Array.unsafe_get b.cins f.fpc)
  else exec_term m t f

(* ------------------------------------------------------------------ *)
(* Top-level loop                                                     *)

let inject_spurious_wakeup m =
  (* Pick some condition-variable waiter and wake it without a signal.
     [cvs_named] mirrors the reference machine's name-keyed table — same
     keys inserted in the same order — so "some waiter" is the same
     waiter. *)
  let woken = ref false in
  Hashtbl.iter
    (fun _key cell ->
      if not !woken then
        match m.cvs.(cell) with
        | Some c when not (Queue.is_empty c.cwaiters) ->
            woken := true;
            ignore (wake_cv_waiter m cell)
        | _ -> ())
    m.cvs_named

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
        | Some t -> (
            match t.status with
            | Runnable -> (
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
            | _ -> ())
        | None -> ()
      done;
      !sites

let exhaustion_outcome m =
  match livelock_sites m with [] -> Fuel_exhausted | sites -> Livelock sites

(* Refill the runnable buffer (ascending tids); returns the live count.
   Runs after each status change, hence the closure-free top-level
   shape. *)
let rec fill_runnable threads buf n i k =
  if i >= n then k
  else
    match threads.(i) with
    | Some t -> (
        match t.status with
        | Runnable ->
            Array.unsafe_set buf k i;
            fill_runnable threads buf n (i + 1) (k + 1)
        | _ -> fill_runnable threads buf n (i + 1) k)
    | None -> fill_runnable threads buf n (i + 1) k

let run cfg cpl =
  let mem = Array.make (Arde_tir.Intern.n_bases cpl.cintern) [||] in
  (* Iterating in declaration order means a duplicate declaration's last
     row wins, matching the historical Hashtbl.replace behaviour. *)
  List.iter
    (fun gl ->
      mem.(Arde_tir.Intern.id cpl.cintern gl.gname) <- Array.make gl.size gl.ginit)
    cpl.prog.globals;
  let sync_cells = max cpl.ctotal 1 in
  let m =
    {
      cfg;
      cpl;
      quiet = Observer.is_none cfg.observer;
      mem;
      threads = Array.make max_threads None;
      n_threads = 0;
      sched = Sched.create cfg.policy ~seed:cfg.seed;
      rng = Arde_util.Prng.create (cfg.seed lxor 0x5bd1e995);
      mutexes = Array.make sync_cells None;
      cvs = Array.make sync_cells None;
      barriers = Array.make sync_cells None;
      sems = Array.make sync_cells None;
      cvs_named = Hashtbl.create 8;
      runnable = Array.make max_threads 0;
      n_runnable = 0;
      stale = true;
      ic =
        (match cfg.instrument with
        | None -> None
        | Some inst -> Some (icache_for cpl inst));
      serial = 0;
      checks = [];
      steps = 0;
      thread_steps = Array.make max_threads 0;
      last_tid = -1;
      context_switches = 0;
    }
  in
  let entry = cpl.centry in
  let ef =
    {
      ffn = entry;
      fblk = 0;
      fpc = 0;
      fregs = Array.make entry.cnregs 0;
      fdef = Bytes.make entry.cnregs '\000';
      fret = -1;
      fdepth = 0;
    }
  in
  let main = { tid = 0; frames = [ ef ]; status = Runnable; spins = [] } in
  m.threads.(0) <- Some main;
  m.n_threads <- 1;
  spin_transition m main ef 0;
  if not m.quiet then emit m (Event.Thread_start { tid = 0 });
  let buf = m.runnable in
  let blocked_list () =
    let rec go i acc =
      if i < 0 then acc
      else
        match m.threads.(i) with
        | Some t -> (
            match t.status with
            | Done | Runnable -> go (i - 1) acc
            | _ -> go (i - 1) (i :: acc))
        | None -> go (i - 1) acc
    in
    go (m.n_threads - 1) []
  in
  (* Tail-recursive driver with no per-step [ref] or list: a buffer
     rebuild only after a transition, one scheduler pick, one step.  The
     buffer stays ascending, so every pick sees the candidates (and makes
     the PRNG draws) that a per-step rebuild would. *)
  let rec drive () =
    if m.stale then begin
      m.n_runnable <- fill_runnable m.threads buf m.n_threads 0 0;
      m.stale <- false
    end;
    let n = m.n_runnable in
    if n = 0 then
      match blocked_list () with [] -> Finished | blocked -> Deadlock blocked
    else if m.steps >= cfg.fuel then exhaustion_outcome m
    else begin
      m.steps <- m.steps + 1;
      (* the injection may wake a thread, but — like the reference — this
         step's pick is over the pre-injection runnable set: the buffer is
         only marked stale, and rebuilt at the top of the next step *)
      if cfg.spurious_wakeups && Arde_util.Prng.int m.rng 256 = 0 then
        inject_spurious_wakeup m;
      let tid = Sched.pick m.sched ~runnable:buf ~n in
      m.thread_steps.(tid) <- m.thread_steps.(tid) + 1;
      if tid <> m.last_tid then begin
        if m.last_tid >= 0 then m.context_switches <- m.context_switches + 1;
        m.last_tid <- tid
      end;
      let t = thread m tid in
      match step m t with
      | () -> drive ()
      | exception Fault_exn (floc, msg) -> Fault { ftid = tid; floc; msg }
    end
  in
  let outcome = drive () in
  (* Rebuild the string-keyed view of final memory for result consumers;
     rows are shared with the machine, not copied. *)
  let memory = Hashtbl.create 16 in
  List.iter
    (fun gl ->
      Hashtbl.replace memory gl.gname mem.(Arde_tir.Intern.id cpl.cintern gl.gname))
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
let read_global res base idx = (Hashtbl.find res.memory base).(idx)

let pp_outcome ppf = function
  | Finished -> Format.pp_print_string ppf "finished"
  | Deadlock tids ->
      Format.fprintf ppf "deadlock (threads %s)"
        (String.concat ", " (List.map string_of_int tids))
  | Fuel_exhausted -> Format.pp_print_string ppf "fuel exhausted"
  | Livelock sites ->
      Format.fprintf ppf "livelock (%s)"
        (String.concat "; "
           (List.map
              (fun s ->
                Printf.sprintf "T%d spinning at %s/%s on %s" s.sp_tid
                  s.sp_loc.lfunc s.sp_loc.lblk
                  (String.concat ", " s.sp_bases))
              sites))
  | Fault { ftid; floc; msg } ->
      Format.fprintf ppf "fault in T%d at %a: %s" ftid Arde_tir.Pretty.loc floc msg
