(** Dense ids for names: an open-addressing table from strings (or
    slices of a larger string) to [0, 1, 2, ...] in first-seen order.

    The parser interns every name it reads with it, the validator keeps
    its per-function sets in it, and the machine's compiler numbers
    registers with it: the id of a register is its frame slot.  A lookup
    hashes the characters once and compares at most a few candidates, with
    no allocation; only a new name is copied out of a slice. *)

type t

val create : int -> t
(** An empty table sized for about [n] names (it grows as needed). *)

val intern : t -> string -> int -> int -> int
(** [intern t s lo hi]: the id of [String.sub s lo (hi - lo)], adding it
    with the next id if absent.  A whole string ([lo = 0],
    [hi = String.length s]) is kept as it is, not copied. *)

val intern_hashed : t -> int -> string -> int -> int -> int
(** [intern_hashed t h s lo hi] is [intern t s lo hi], for a caller that
    already read the characters and computed their hash: the polynomial
    [h := h * 31 + Char.code c] over the slice from [h = 0], masked with
    [max_int]. *)

val find : t -> string -> int -> int -> int
(** Like {!intern}, but [-1] when the name is absent. *)

val name : t -> int -> string
val count : t -> int
