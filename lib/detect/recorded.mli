(** The typed view of a recorded trace.

    {!Trace_codec} knows bytes; this module knows what they mean to the
    detector: the header's mode string becomes a {!Config.mode}, the
    options document becomes an {!Options.t}, the embedded program text
    is parsed and validated, and the digest is checked against the
    program it claims to describe.  Loading is strict — a recording that
    passes {!of_string} can be replayed by [Driver.run] without further
    validation — but event bodies stay {e encoded}: sections decode
    lazily, one seed at a time, on whichever domain replays them. *)

type t

val of_string : string -> (t, string) result
(** Decode and cross-check a complete binary trace.  Errors cover the
    codec's structural failures plus the semantic ones: unknown mode,
    ill-formed options document, program that fails to parse or
    validate, digest that does not match the embedded program. *)

val mode : t -> Config.mode
val options : t -> Options.t
(** The recording run's options; [inject] is always [None] (closures
    never cross the wire). *)

val program : t -> Arde_tir.Types.program
(** The recorded program, parsed from the embedded canonical text.
    This is the {e original} (pre-lowering) program: replay re-runs the
    static half, so a lowering mode lowers it again, identically. *)

val sections : t -> Arde_runtime.Trace_codec.section list
(** One per recorded seed, in recording (seed) order. *)

val digest_hex : t -> string
(** Hex digest of the canonical program text (verified at load). *)

val source : t -> string
(** The recording's free-form origin label (workload name); [""] when
    none was given. *)

val seeds : t -> int list
val n_events : t -> int  (** total across sections *)
