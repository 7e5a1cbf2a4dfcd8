(** Control-flow graph of one TIR function.

    Blocks are identified by their index in the function's block list; index
    0 is the entry.  Successor/predecessor lists are precomputed. *)

type t = {
  func : Arde_tir.Types.func;
  blocks : Arde_tir.Types.block array;
  succs : int list array;
  preds : int list array;
}

val of_func : Arde_tir.Types.func -> t
(** @raise Invalid_argument if a branch target does not resolve (run
    [Tir.Validate] first). *)

val label_of : t -> int -> Arde_tir.Types.label
val n_blocks : t -> int

val reachable : t -> bool array
(** Blocks reachable from the entry. *)
