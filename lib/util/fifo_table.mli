(** A hash table bounded by insertion order: once it holds [bound]
    entries, adding a new key evicts the oldest one.

    Used for every table a long-lived process fills from its inputs (the
    analysis cache's three levels, the serve worker's parsed programs),
    so memory plateaus however many distinct programs arrive.  Not
    thread-safe: callers that share a table across domains guard it
    themselves. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create bound] is an empty table holding at most [bound] entries.

    @raise Invalid_argument if [bound < 1]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert [key], evicting the oldest entry when the table is full.  A
    key already present keeps its value and its age: the first
    published value wins. *)

val length : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
