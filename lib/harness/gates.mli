(** The timing floors behind [bench gates].

    The paper's claim is that spin-loop instrumentation costs little over
    the plain hybrid detector; these floors defend the speed of the
    layers that claim rests on.  Each gate times two sides of one
    workload over {!pairs} pairs of runs, alternating which side runs
    first, and gates on the median of the per-pair time ratios:

    - engine speedup: {!Arde.Engine_ref} time / {!Arde.Engine} time on
      one recorded trace, at least 1.0× on streamcluster under
      nolib+spin(7) and on the synthetic barrier-128, barrier-512 and
      join-128 streams, at least 2.0× on join-512;
    - machine speedup: {!Arde.Machine_ref} time / {!Arde.Machine} time,
      quiet, at least 1.0× on streamcluster under nolib+spin(7);
    - record overhead: machine time with a {!Arde.Trace_codec} sink /
      quiet machine time, at most 1.1× on swaptions under nolib+spin(7);
    - predict cost: predicting from one recorded seed / the 16-seed live
      sweep, at most 0.25× on swaptions under nolib+spin(7).

    Deterministic checks — report, trace and replay identity, prediction
    coverage and soundness — are tests, not gates. *)

type row = {
  gate : string;
  workload : string;
  mode : string;
  ratio : float;  (** the gated value: median per-pair time ratio *)
  bound : float;
  pairs : int;
  q1 : float;  (** quartiles of the per-pair ratios *)
  median : float;
  q3 : float;
  pass : bool;
}

val pairs : int
(** Timed pairs per gate, after one untimed warm-up run of each side. *)

val run : unit -> row list
(** Every gate, in the order listed above. *)

val to_json : row list -> Arde_util.Json.t
(** The BENCH_gates.json wire form: host core count plus one object per
    row with the {!row} field names as keys. *)

val render : row list -> string
(** Human-readable table of the same rows. *)

(** {1 Shared measurement helpers} *)

val median : float list -> float
(** Upper median (element [n/2] of the sorted list). *)

val alloc_words : unit -> float
(** Words allocated so far, from the GC's own counters.  [Gc.quick_stat]
    does not force a heap walk; minor + major - promoted counts every
    allocation exactly once (promoted words would otherwise be counted
    twice). *)

(** {1 Synthetic high-thread-count streams}

    The machine caps executions at [Tir.Types.max_threads], so the 128-
    and 512-thread engine rows replay hand-built event streams through
    engines created with a raised [~threads]. *)

type synthetic = {
  s_name : string;  (** barrier-128, barrier-512, join-128, join-512 *)
  s_mode : Arde.Config.mode;
  s_threads : int;
  s_events : Arde.Event.t array Lazy.t;
}

val synthetic : synthetic list
