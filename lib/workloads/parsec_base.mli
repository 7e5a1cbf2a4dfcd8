(** Site-group generators for the synthetic PARSEC programs.

    Racy contexts count distinct static location pairs, so these builders
    unroll "site groups": each group gets its own producer instructions
    and consumer blocks, ordered by one of the synchronization idioms
    below.  The detector configuration decides whether that ordering is
    visible — which is what produces the paper's per-column context
    counts. *)

open Arde.Types

type consume = [ `Writeback | `Readonly of int | `Blind ]
(** How a consumer touches [data[g]]: two update rounds, [n] distinct
    read sites, or a lone blind store (exactly one context when the
    ordering is invisible). *)

val produce_flag : data:string -> flag:string -> int -> instr list
val produce_cv_gate :
  data:string -> gate:string -> cv:string -> m:string -> int -> instr list
val produce_locked_flag : data:string -> flag:string -> m:string -> int -> instr list

val consumer :
  ?epilogue:(int -> instr list) ->
  fname:string ->
  data:string ->
  consume:consume ->
  gate_blocks:(tag:string -> int -> block list) ->
  int list ->
  func
(** One unrolled consumer handling the given groups in order: per group,
    [gate_blocks] (ending at ["<tag>_wrk"]) then the consumption and the
    optional epilogue (typically the handoff to a chained second
    consumer). *)

val flag_gate : flag:string -> window:int -> tag:string -> int -> block list
val fptr_gate : fptr_slot:int -> tag:string -> int -> block list
val locked_flag_gate : flag:string -> m:string -> tag:string -> int -> block list
val cv_gate : gate:string -> cv:string -> m:string -> tag:string -> int -> block list
(** Check-once-then-[cond_wait]: no loop, so ordering is visible only
    through library knowledge or a recoverable lowering of the wait. *)

val chunks : k:int -> int -> int list list
(** Split [n] groups into at most [k] consecutive non-empty chunks. *)
