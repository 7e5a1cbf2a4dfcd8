(** Shared scaffolding for the unit-suite case builders: the spawn/join
    harness, ad-hoc spin-loop shapes of controllable window, private delay
    loops for schedule biasing, and condition-check helpers. *)

open Arde.Types

val harness :
  ?globals:(string * int * int) list ->
  ?func_table:string list ->
  ?before:instr list ->
  ?after:instr list ->
  workers:(string * operand list) list ->
  func list ->
  program
(** A standard main: [before], spawn each worker, join them all, [after]. *)

val spin_flag :
  tag:string -> flag:addr -> window:int -> exit_lbl:label -> block list
(** A spinning read loop on [flag <> 0] whose body has exactly [window]
    basic blocks (1–12). *)

val check_helper_name : string -> string

val check_helper : string -> func
(** Double-checking condition helper over an array base (4 blocks); place
    once per base and call from loops or through the function table. *)

val spin_flag_call :
  tag:string -> flag_base:string -> idx:operand -> exit_lbl:label -> block list
(** A 3-block loop whose condition calls {!check_helper}: effective window
    7. *)

val spin_flag_fptr :
  tag:string -> fptr_slot:int -> idx:operand -> exit_lbl:label -> block list
(** The same loop with the condition behind a function-table slot —
    statically unanalyzable. *)

val delay : tag:string -> n:int -> next:label -> block list
(** [n] iterations of register-only busywork; biases which thread reaches
    a point first. *)

val bump : addr -> instr list
(** Load-increment-store of one cell (three distinct access sites). *)
