(** Vector clocks for happens-before tracking.

    Values are immutable; [join] and [inc] return fresh clocks.  Thread ids
    are small non-negative integers (the machine caps them at
    [Tir.Types.max_threads]), so clocks are dense integer arrays trimmed to
    the highest non-zero component — compact enough to sit in every shadow
    cell, which is what the paper's memory-consumption figure measures.

    Snapshots additionally carry a {e provenance epoch} — the owning
    thread and a version counter of its mutable clock at snapshot time —
    which lets a mutable clock answer "have I already absorbed this
    snapshot?" in O(1) instead of walking every component.  The epoch is
    invisible to the lattice: [equal], [leq], [join] and friends depend
    only on the components, so the two representations still compare
    identically through {!snapshot}. *)

type t

val bottom : t
(** The all-zero clock. *)

val get : t -> int -> int
val inc : t -> int -> t
(** [inc c t] bumps component [t] by one. *)

val set : t -> int -> int -> t

val join : t -> t -> t
(** Component-wise maximum. *)

val leq : t -> t -> bool
(** Pointwise [<=]; the happens-before order on clocks. *)

val is_bottom : t -> bool

val of_list : int list -> t
val to_list : t -> int list
(** Trailing zeros trimmed. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val size_words : t -> int
(** Approximate heap footprint in words, for the memory experiment. *)

val size_words_raised : t -> int -> int -> int
(** [size_words_raised c u k] is {!size_words} of [c] joined with the
    epoch [k@u], without building the join (see
    {!mjoin_raise_changed}). *)

(** {1 Mutable clocks}

    The detector's per-event fast path: a fixed-capacity clock mutated in
    place, so [tick]/[join] on the per-thread clocks allocate nothing.
    Stored metadata (release snapshots, spin-edge clocks) goes through
    {!snapshot}, which re-establishes the trimmed immutable form — the two
    representations compare identically through it. *)

type m

val make_mut : ?owner:int -> int -> m
(** [make_mut ~owner capacity] is an all-zero mutable clock; components
    at or above [capacity] are fixed at 0.  [owner] is the thread this
    clock belongs to (default [-1], unowned): snapshots of an owned
    clock carry its epoch, and joining a snapshot the clock has already
    absorbed — including any earlier snapshot of itself — is O(1). *)

val mget : m -> int -> int
val mtick : m -> int -> unit
(** Bump one component in place. *)

val mjoin : m -> t -> unit
(** Component-wise maximum of an immutable clock into a mutable one. *)

val mjoin_changed : m -> t -> bool
(** Like {!mjoin}, reporting whether any component actually grew — a
    no-op join leaves cached snapshots of the clock valid. *)

val mjoin_raise_changed : m -> t -> int -> int -> bool
(** [mjoin_raise_changed m c u k] joins [c] and the epoch [k@u]
    (component [u] at least [k]) into [m], reporting whether any
    component grew, without building the joined clock.  A thread's
    clock between two joins is its last snapshot with only its own
    component moved on, so a writer's clock is such a pair. *)

val mjoin_m : m -> m -> unit
(** [mjoin_m dst src]: join [src] into [dst], both mutable. *)

val m_is_bottom : m -> bool

val mclear : m -> unit
(** Back to all-zero, as {!make_mut} left it, keeping the owner and the
    allocation.  Snapshots taken before must not be joined into it
    again: their epochs would claim versions the cleared clock reuses. *)

val snapshot : m -> t
(** Immutable trimmed copy; the only way mutable state may be stored. *)

val msize_words : m -> int
(** Heap footprint of a mutable clock (full capacity, not trimmed). *)
