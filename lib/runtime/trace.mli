(** The in-memory event buffer — the one place a run's events are
    collected.

    A growable [Event.t] array: {!push} appends in emission order and is
    itself an {!Observer.t}, so it plugs into {!Machine.config} and
    {!Trace_codec.decode_events} alike.  No detection path buffers
    events (prediction streams them); the CLI's trace dump, the trace
    fixtures, the timing gates and the tests collect them here and read
    them back with {!events}.  Pushing does no per-event work beyond the
    store; {!hash} folds over the buffer on demand. *)

type t

val create : unit -> t

val push : t -> Observer.t
(** [push t] appends each event it is fed (capacity doubles, from 256). *)

val events : t -> Event.t array
(** In emission order.  Shares the buffer when it is exactly full;
    later pushes never write into a returned array. *)

val length : t -> int

val hash : t -> int
(** Order-sensitive structural hash: an FNV mix of [Hashtbl.hash] per
    event (the value the golden trace summaries pin). *)

val pp : Format.formatter -> t -> unit
