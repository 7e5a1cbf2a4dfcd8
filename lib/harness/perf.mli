(** Figures 1 and 2: detector memory consumption and runtime overhead.

    Each workload is executed repeatedly per configuration (plus a bare
    "none" baseline with no detector attached); an initial warm-up
    repetition absorbs one-time costs and is discarded.  The tables
    report median wall-clock time, GC allocation (from [Gc.quick_stat]
    counter deltas: minor + major - promoted words), the detector's live
    heap words, and the lib+spin / lib overhead ratio — the paper's
    "minor overhead" claim. *)

type sample = {
  s_mode : string; (* "none" for the bare machine *)
  s_time_ns : float;
  s_alloc_words : float;
  s_detector_words : int;
}

type fig = { workload : string; samples : sample list }

val measure :
  ?repeats:int -> Arde_workloads.Parsec.info * Arde.Types.program -> fig

val figure1 : fig list -> string
(** Memory (detector heap words). *)

val figure2 : fig list -> string
(** Runtime (ms per run). *)

val run_figures : ?repeats:int -> unit -> fig list * string * string
