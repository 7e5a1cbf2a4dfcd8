(** The interpreting virtual machine.

    Executes a TIR program as a set of interleaved threads, one instruction
    per scheduler step, under sequential consistency.  Every memory access
    and synchronization operation is reported to the configured observer as
    an {!Event.t}; race detectors are pure observers and never influence
    execution.

    When spin instrumentation metadata is supplied, the machine tracks
    active spinning-read-loop contexts per thread (entering a marked loop
    header pushes a context; leaving the loop's blocks or returning from
    the function pops it, emitting [Spin_exit]), and tags condition loads
    with the contexts they belong to — the runtime half of the paper's
    two-phase method. *)

open Arde_tir.Types

type config = {
  policy : Sched.policy;
  seed : int;
  fuel : int; (* maximum machine steps before giving up *)
  instrument : Arde_cfg.Instrument.t option;
  spurious_wakeups : bool; (* failure injection for condition variables *)
  observer : Observer.t;
}

val default_config : config
(** [Chunked 6] scheduling, seed 1, 2,000,000 fuel, no instrumentation, no
    spurious wakeups, events discarded.

    Leaving [observer] as {!Observer.none} (physical equality) arms the
    quiet fast path: the machine skips event construction entirely,
    making steady-state steps allocation-free.  Results are identical
    either way — only the observer stream disappears.  [Observer.tee]
    preserves quietness, so composing optional pipeline stages never
    disarms it by accident. *)

exception Fault_exn of loc * string
(** The in-band fault signal.  Raised by the interpreter on a program
    error (bad index, unlock by non-owner, division by zero, …) and caught
    by the top-level loop, which converts it into a {!Fault} outcome.
    Observers may raise it too — that is the supported channel for
    deterministic fault injection (see [Arde_chaos]): a [Fault_exn] raised
    mid-step is attributed to the thread executing that step. *)

exception Internal_violation of string
(** A broken machine invariant — a bug in the machine or in a caller
    poking at its state, never a property of the interpreted program
    (dead thread id, empty frame stack, waiter queues out of sync, missing
    entry function).  Escapes {!run} so that harnesses can convert it into
    a structured "detector crashed" outcome instead of dying on a bare
    [Invalid_argument]. *)

type spin_site = {
  sp_tid : int; (* the spinning thread *)
  sp_loop : int; (* instrumentation loop id *)
  sp_loc : loc; (* the loop header block *)
  sp_bases : string list; (* condition variables the loop reads *)
}
(** Where a thread was spinning when fuel ran out. *)

type outcome =
  | Finished
  | Deadlock of int list (* the blocked thread ids *)
  | Fuel_exhausted
  | Livelock of spin_site list
      (* fuel ran out while these threads sat inside instrumented spinning
         read loops whose counterpart write never arrived; only produced
         when spin instrumentation is active *)
  | Fault of { ftid : int; floc : loc; msg : string }

type result = {
  outcome : outcome;
  steps : int;
  threads_spawned : int;
  check_failures : (loc * string) list;
  memory : (string, int array) Hashtbl.t; (* final global memory *)
  thread_steps : int array; (* instructions executed, indexed by tid *)
  context_switches : int; (* scheduler hand-offs between threads *)
}

type compiled
(** A program preprocessed for execution (blocks as arrays, label indices
    resolved).  Compile once, run under many seeds. *)

val compile : program -> compiled
(** @raise Invalid_argument if the program does not validate. *)

type spin_cache = {
  sc_header : int array array; (* fid -> blk -> loop id, or -1 *)
  sc_inloop : int array array array; (* fid -> blk -> containing loop ids *)
  sc_tags : int array array array array;
      (* fid -> blk -> pc -> condition-load loop ids *)
}
(** The per-instrumentation spin cache a run consults on its hot path:
    per (function, block[, pc]), the spin loop the block heads, the spin
    loops it belongs to (ascending), and the loops a load site is a
    condition load of. *)

val export_spin_cache : compiled -> Arde_cfg.Instrument.t -> spin_cache
(** Build (or fetch) and return the icache for [inst].  The build is
    memoized on the compiled program, so a subsequent {!run} with the
    same instrumentation reuses it: calling this before the first run
    moves the build cost, it does not add to it. *)

val run : config -> compiled -> result

val run_program : config -> program -> result
(** [compile] + [run]. *)

val read_global : result -> string -> int -> int
(** Read a cell of the final memory.  @raise Not_found for unknown
    globals. *)

val pp_outcome : Format.formatter -> outcome -> unit
