(** What a detection run consumes — the one front door.

    [Arde.detect], [Driver.run] and the serve protocol all take an
    {!t}: program source text, an already-built program value (validated
    or not), or a recorded trace to replay.  The sum is what lets every
    entry point stop assuming "input = program text" now that analysis
    can run from a recording without re-executing the machine.  Whichever
    it is, a cold run validates the program once, before lowering or
    instrumenting it, and each lowering once. *)

type t =
  | Text of string  (** TIR source, parsed and validated by the driver *)
  | Program of Arde_tir.Types.program  (** validated by the driver *)
  | Valid of Arde_tir.Validate.valid
      (** a program its caller already validated (to report its own
          errors): the driver does not check it again *)
  | Recorded_trace of Recorded.t
      (** replay: the machine never runs; events stream from the
          recording *)
