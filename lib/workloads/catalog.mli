(** Unified lookup over every bundled workload. *)

type entry =
  | Case of Racey.case (* labelled unit-suite case *)
  | Parsec of Parsec.info * Arde.Types.program

val find : string -> entry option
