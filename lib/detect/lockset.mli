(** Eraser-style locksets.

    A shared location's candidate lockset starts as "all locks" and is
    intersected with the accessing thread's currently-held set on every
    shared access; an empty candidate set means no lock consistently
    protects the location. *)

type key = string * int
(** A mutex identity: global base and element index. *)

type t
(** Either [Top] (all locks — the initial candidate set) or a finite set. *)

val top : t
val of_list : key list -> t
val inter : t -> t -> t
val is_empty : t -> bool
(** [Top] is not empty. *)

val mem : key -> t -> bool
val to_list : t -> key list option
(** [None] for [Top]. *)

(** Mutable per-thread held-lock multiset (locks can be acquired in a
    nested fashion across distinct keys; re-acquisition of the same key is
    a machine fault, so plain sets suffice). *)
module Held : sig
  type h

  val create : unit -> h
  val acquire : h -> int -> key -> unit
  val release : h -> int -> key -> unit
  val current : h -> int -> t
  (** The held set of a thread as a lockset. *)
end

(** The same sets over dense lock ids ({!Arde_runtime.Sync_ids}), for
    the optimized engine: membership is an [int] compare, and narrowing
    a candidate set the thread still holds returns it as it is instead
    of building a new set.  A lockset value is immutable once built; the
    held sets are the only mutable part. *)
module Dense : sig
  type t

  val top : t
  val is_empty : t -> bool
  (** [top] is not empty. *)

  val inter : t -> t -> t
  (** [inter s h] is [s] itself when [h] holds every lock of [s]. *)

  type held
  (** Per-thread held sets, each with its lockset cached until it
      changes. *)

  val held : int -> held
  (** Empty sets for [threads] threads. *)

  val clear : held -> unit
  (** Empty every set, keeping the arrays. *)

  val footprint : held -> int
  (** Slots the held sets' arrays hold, which {!clear} keeps. *)

  val acquire : held -> int -> int -> unit
  val release : held -> int -> int -> unit
  val current : held -> int -> t
end
