(** Tables 3–6: the PARSEC part of the evaluation.

    Racy contexts per program and detector configuration, averaged over
    the seeds and capped at 1000 per run, with warnings surfaced for any
    run that did not finish cleanly. *)

type row = {
  info : Arde_workloads.Parsec.info;
  loc : int;
  contexts : (Arde.Config.mode * float) list;
  capped : (Arde.Config.mode * bool) list;
  bad : (Arde.Config.mode * Arde.Driver.seed_outcome) list;
}

val run_one :
  ?seeds:int list ->
  ?jobs:int ->
  Arde_workloads.Parsec.info * Arde.Types.program ->
  row

val table3 :
  ?programs:(Arde_workloads.Parsec.info * Arde.Types.program) list ->
  unit ->
  string
(** The static inventory (model, LOC, primitives used). *)

val table4 : ?seeds:int list -> ?jobs:int -> unit -> row list * string
(** Programs without ad-hoc synchronization. *)

val table5 : ?seeds:int list -> ?jobs:int -> unit -> row list * string
(** Programs with ad-hoc synchronization. *)

val table6 : ?seeds:int list -> ?jobs:int -> unit -> row list * string
(** All thirteen programs — the universal-detector summary. *)
