(** Core type definitions of TIR, the threaded register IR.

   TIR plays the role that x86 machine code plays for the paper's Valgrind
   tool: programs are made of functions, functions of basic blocks, blocks
   of simple instructions over integer registers and named global memory.
   Threads are first class (spawn / join), and the synchronization
   primitives of a "known library" (mutexes, condition variables, barriers,
   semaphores) exist as native instructions that [Lower] can rewrite into
   plain spinning-read-loop implementations to model unknown libraries.

    This module is types-only; construction helpers live in [Builder],
    checking in [Validate], printing in [Pretty]. *)

type reg = string
(* Virtual register, private to a stack frame. *)

type label = string
(* Basic-block label, unique within a function. *)

type binop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type rmw_op = Rmw_add | Rmw_exchange | Rmw_or | Rmw_and

type operand = Imm of int | Reg of reg

(* A memory address: statically named global plus a dynamic element index.
   Scalars are size-1 globals addressed with index [Imm 0]. *)
type addr = { base : string; index : operand }

type instr =
  | Mov of reg * operand
  | Binop of reg * binop * operand * operand
  | Cmp of reg * cmpop * operand * operand
  | Load of reg * addr
  | Store of addr * operand
  | Cas of reg * addr * operand * operand
    (* [Cas (ok, a, expect, new_)]: atomically, if [!a = expect] then
       [a := new_] and [ok := 1] else [ok := 0]. *)
  | Rmw of reg * rmw_op * addr * operand
    (* [Rmw (old, op, a, arg)]: atomically [old := !a; a := op !a arg]. *)
  | Fence
  | Call of reg option * string * operand list
  | Call_indirect of reg option * operand * operand list
    (* Callee is [func_table.(v)] for the operand's value [v].  Models
       function pointers, which defeat the static condition analysis. *)
  | Spawn of reg * string * operand list (* reg receives the child tid *)
  | Join of operand
  | Lock of addr
  | Unlock of addr
  | Cond_wait of addr * addr (* condition variable, protecting mutex *)
  | Cond_signal of addr
  | Cond_broadcast of addr
  | Barrier_init of addr * operand (* participant count *)
  | Barrier_wait of addr
  | Sem_init of addr * operand
  | Sem_post of addr
  | Sem_wait of addr
  | Yield
  | Check of operand * string
    (* Runtime assertion: records a failure in the run result when the
       operand evaluates to 0.  Used by workloads to assert that the
       synchronization under test really synchronizes. *)
  | Nop

type term =
  | Goto of label
  | Br of operand * label * label (* nonzero -> first target *)
  | Ret of operand option
  | Exit (* thread exit *)

type block = { lbl : label; ins : instr list; term : term }

type func = {
  fname : string;
  params : reg list;
  blocks : block list; (* the entry block is the first one *)
}

type global = { gname : string; size : int; ginit : int }

type program = {
  funcs : func list;
  globals : global list;
  func_table : string list; (* indirect-call targets, indexed by value *)
  entry : string; (* function run by the initial thread, no arguments *)
}

(* A source location: [idx] is the instruction's position inside the
   block's [ins] list, or -1 for the block terminator. *)
type loc = { lfunc : string; lblk : label; lidx : int }

val compare_loc : loc -> loc -> int

val thread_done_global : string
(** Reserved global written by the machine when a thread terminates;
    [Lower] turns [Join] into a spinning read of it. *)

val max_threads : int
