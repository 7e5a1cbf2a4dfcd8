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
