(** Memory-base interning.

    Global bases are strings in TIR, but the detector's per-event hot path
    cannot afford to hash one per access.  [of_program] assigns every base
    a dense integer id once, at compile time; machine events then carry the
    id alongside the name, and detectors key their shadow state by it —
    flat array indexing instead of polymorphic tuple hashing.

    The reserved [__thread_done] base is always interned (with extent at
    least [max_threads]) because the machine emits a write to it on every
    thread exit, declared or not. *)

type t

val of_program : Types.program -> t

val id : t -> string -> int
(** Dense id of a base, or [-1] if the program never declared it. *)

val name : t -> int -> string
val size : t -> int -> int
(** Interned extent of the base (cells). *)

val declared : t -> int -> bool
(** Whether the program itself declared the global ([__thread_done] may be
    interned without being declared — the machine then emits its exit
    events but never stores to it). *)

val n_bases : t -> int
