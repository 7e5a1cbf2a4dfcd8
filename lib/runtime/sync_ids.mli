(** Dense ids for the synchronization objects of one event stream.

    Lock, condition-variable, semaphore and barrier events name their
    object by [(base, idx)], plus the generation for barriers.  Per-object
    state is cheapest in arrays, so consumers intern each object to a
    small integer on first sight.  A lookup fills one mutable probe key
    in place: no event allocates a tuple key, and only a new object
    allocates its table entry.

    Locks count in their own id space, so a consumer can size per-lock
    state apart from the rest: native mutexes and locks inferred from
    atomic flags share it, and a [(base, idx)] names one lock whichever
    way it is taken.  CV, semaphore and barrier-generation keys count in
    the other space. *)

type t

val create : unit -> t

val clear : t -> unit
(** Forget every id, keeping the table's capacity. *)

val lock : t -> base:string -> idx:int -> int
(** The id of the lock [(base, idx)], below {!n_locks}. *)

val of_event : t -> Event.t -> int
(** A lock event's lock id, or a CV, semaphore or barrier event's object
    id (below {!n_objects}); [-1] for accesses, spawns, joins and thread
    and spin markers. *)

val find_barrier : t -> base:string -> idx:int -> generation:int -> int
(** The object id of a barrier generation if it has one, without
    interning it; [-1] otherwise. *)

val footprint : t -> int
(** The table's bucket count, which {!clear} keeps. *)

val n_locks : t -> int
val n_objects : t -> int
