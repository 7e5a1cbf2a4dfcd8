(** What a detection run consumes — the one front door.

    [Arde.detect], [Driver.run] and the serve protocol all take an
    {!t}: program source text, an already-built program value, or a
    recorded trace to replay.  The sum is what lets every entry point
    stop assuming "input = program text" now that analysis can run from
    a recording without re-executing the machine. *)

type t =
  | Text of string  (** TIR source, parsed and validated by the driver *)
  | Program of Arde_tir.Types.program
  | Recorded_trace of Recorded.t
      (** replay: the machine never runs; events stream from the
          recording *)
