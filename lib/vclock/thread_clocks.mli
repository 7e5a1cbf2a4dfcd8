(** The per-thread clocks of one happens-before pass, kept between seeds.

    Each thread has a mutable clock ({!Vector_clock.m}) that ticks and
    joins in place, and a cached snapshot of it as of its last join.  A
    thread's clock between two joins is that snapshot with only its own
    component moved on, so a release stores the snapshot (raised to the
    thread's epoch where the consumer keeps epochs apart) instead of
    taking a new one.  Only a join that moves the clock, or a spawn
    joining the parent's clock, invalidates the snapshot; re-acquiring an
    already-seen clock (a spin loop hammering one atomic) keeps it.

    The invariant, after every operation: [joined b t] equals
    [Vector_clock.snapshot (clocks b).(t)] on every component but [t]'s
    own, and [snapshot b t] equals it everywhere. *)

type t

val create : int -> t
(** [create n]: [n] threads' zero clocks, each of capacity [n]. *)

val clear : t -> unit
(** Back to the state {!create} gives, keeping every allocation. *)

val clocks : t -> Vector_clock.m array
(** The mutable clocks, by thread, for the consumers' hot scans.  Read
    them; move them only through the operations below. *)

val tick : t -> int -> unit
val own : t -> int -> int
(** Thread [t]'s own component of its clock. *)

val acquire : t -> int -> Vector_clock.t -> unit
(** Join a clock into thread [t]'s. *)

val acquire_raised : t -> int -> Vector_clock.t -> int -> int -> unit
(** [acquire_raised b t c u k] joins [c] raised to the epoch [k@u] (see
    {!Vector_clock.mjoin_raise_changed}). *)

val joined : t -> int -> Vector_clock.t
(** Thread [t]'s clock as of its last join: its current clock but
    perhaps for its own component. *)

val snapshot : t -> int -> Vector_clock.t
(** Thread [t]'s whole current clock as one immutable value: the
    last-join snapshot itself when [t] has not ticked since. *)

val spawn : t -> parent:int -> child:int -> unit
(** The child takes in the parent's clock; both tick. *)

val exit : t -> int -> unit
(** Record thread [t]'s current clock as its exit clock. *)

val join_exit : t -> int -> target:int -> unit
(** Thread [t] acquires [target]'s exit clock (bottom if it has not
    exited). *)

val size_words : t -> int
(** The mutable clocks' heap footprint at full capacity. *)
