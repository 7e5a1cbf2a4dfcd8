(** Backward data slices of loop-exit conditions.

    The spin classifier needs to know, for a candidate loop, which memory
    loads feed the value(s) its exit branches test — including loads inside
    directly-called condition helpers (the paper's "loop conditions use
    templates and complex function calls").  This module computes that
    slice with a register-level fixpoint, recursing into direct callees
    whose return value participates.  Indirect calls and recursion make a
    slice opaque: the static analysis gives up on them, which is exactly
    the failure mode the paper reports for function-pointer conditions. *)

open Arde_tir.Types

type callee_summary = {
  cs_blocks : int; (* callee blocks counted toward the spin window *)
  cs_loads : loc list; (* loads feeding the callee's return value *)
  cs_bases : string list;
  cs_stores : string list; (* all bases stored by the callee (transitively) *)
  cs_opaque : bool;
}

type ctx
(** Memoizing analysis context over one program. *)

val make_ctx : program -> ctx

type cond_slice = {
  loads : loc list; (* condition load sites, in-loop and in-callee *)
  bases : string list; (* bases those loads read *)
  callee_blocks : int; (* extra window contributed by condition callees *)
  callees : string list;
  opaque : bool;
  store_bases : string list;
      (* bases stored anywhere in the loop body or by its direct callees *)
}

val of_loop : ctx -> Graph.t -> Loops.loop -> cond_slice
