(** First-class event observers — the one composition surface.

    An observer is what the machine's event stream flows into: a race
    detection engine, a condition-variable checker, a recording
    {!Trace_codec.sink}, the in-memory {!Trace} buffer, a chaos
    injector.  The type is a plain [Event.t -> unit] so attaching one
    costs nothing on the emit path, but all {e composition} goes through
    this module: [tee] is quiet-preserving (composing with
    {!none} is the identity, so a pipeline stage that opts out never
    costs an indirection), and {!none} is the canonical discarding
    observer whose physical identity arms the machine's quiet fast path
    (events are then never constructed at all — see
    {!Machine.default_config}).

    Producers ({!Trace.push}, [Engine.observer], [Cv_checker.observer],
    {!Trace_codec.sink_observer}) return values of this type; raw
    closures should only be {e created} here or by those producers, and
    only {e combined} here. *)

type t = Event.t -> unit

val none : t
(** The canonical discarding observer.  Physically comparing against
    [none] is the supported way to detect "nobody is listening" — the
    machine does exactly that to skip event construction entirely. *)

val is_none : t -> bool
(** Physical test against {!none}. *)

val of_fn : (Event.t -> unit) -> t
(** Adopt a raw closure (the identity; exists so intent is greppable). *)

val emit : t -> Event.t -> unit
(** Feed one event. *)

val tee : t -> t -> t
(** [tee a b] feeds [a] then [b].  Composing with {!none} returns the
    other observer unchanged (physically), so quietness is preserved. *)
