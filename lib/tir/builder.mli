(** Combinator DSL for constructing TIR programs.

    Workloads and tests build programs from these pure helpers; nothing here
    is stateful.  The conventions:

    - [g "x"] addresses the scalar global [x]; [gi "a" idx] an array slot;
    - registers and labels are plain strings;
    - [blk label instrs terminator] makes a basic block;
    - [func name ~params blocks] a function whose entry is the first block;
    - [program ~globals ~funcs ~entry ()] a whole program. *)

open Types

val imm : int -> operand
val r : reg -> operand

val g : string -> addr
(** Scalar global (index 0). *)

val gi : string -> operand -> addr
(** Array global with a dynamic index. *)

(** Instruction shorthands. *)

val mov : reg -> operand -> instr
val addi : reg -> operand -> operand -> instr
val subi : reg -> operand -> operand -> instr
val muli : reg -> operand -> operand -> instr
val divi : reg -> operand -> operand -> instr
val modi : reg -> operand -> operand -> instr
val andi : reg -> operand -> operand -> instr
val ori : reg -> operand -> operand -> instr
val xori : reg -> operand -> operand -> instr
val shli : reg -> operand -> operand -> instr
val shri : reg -> operand -> operand -> instr
val cmp : cmpop -> reg -> operand -> operand -> instr
val load : reg -> addr -> instr
val store : addr -> operand -> instr
val cas : reg -> addr -> operand -> operand -> instr
val rmw : rmw_op -> reg -> addr -> operand -> instr
val call : ?ret:reg -> string -> operand list -> instr
val call_ind : ?ret:reg -> operand -> operand list -> instr
val spawn : reg -> string -> operand list -> instr
val join : operand -> instr
val lock : addr -> instr
val unlock : addr -> instr
val wait : addr -> addr -> instr
val signal : addr -> instr
val broadcast : addr -> instr
val barrier_init : addr -> operand -> instr
val barrier_wait : addr -> instr
val sem_init : addr -> operand -> instr
val sem_post : addr -> instr
val sem_wait : addr -> instr
val yield : instr
val check : operand -> string -> instr
val nop : instr

(** Terminators. *)

val goto : label -> term
val br : operand -> label -> label -> term
val ret : operand option -> term
val ret0 : term
(** [Ret None]. *)

val exit_t : term

(** Structure. *)

val blk : label -> instr list -> term -> block
val func : string -> ?params:reg list -> block list -> func

val program :
  ?globals:(string * int * int) list ->
  ?func_table:string list ->
  entry:string ->
  func list ->
  program
(** [globals] are [(name, size, initial_value)] triples; every global used
    by the functions must be declared.  [entry] names the initial thread's
    function (it must take no parameters). *)

val global : string -> ?size:int -> ?init:int -> unit -> string * int * int
(** Convenience for building the [globals] list. *)

val counted_loop :
  tag:string ->
  counter:reg ->
  limit:operand ->
  body:instr list ->
  next:label ->
  block list
(** [counted_loop ~tag ~counter ~limit ~body ~next] generates the blocks of
    a register-counted loop ([for counter = 0 .. limit-1 do body]) that
    falls through to the [next] label.  The condition involves no memory
    load, so the spin classifier never mistakes it for a spinning read
    loop.  Block labels are prefixed with [tag]. *)
