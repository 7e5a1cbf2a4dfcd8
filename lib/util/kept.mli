(** Kept state: what a stream consumer grows with one seed and keeps,
    reset in place, for the next seed on the same domain.

    A consumer ([Engine], [Sp_predict]) holds its growable arrays in one
    workspace.  A {!slot} keeps at most one spare workspace per domain:
    {!take} hands it out (or builds a fresh one when the domain has none
    to spare, say while another consumer holds it), and {!give_back}
    resets it and keeps it for the next seed unless it grew past {!cap}.
    A workspace never given back (a crashed seed) goes with its
    consumer. *)

val cap : int
(** [2{^20}]: the most slots, as a workspace's footprint counts them, a
    domain keeps for one consumer between seeds. *)

type 'a slot

val slot : footprint:('a -> int) -> reset:('a -> unit) -> 'a slot
(** One per-domain slot for a consumer's workspaces.  [footprint] counts
    a workspace's kept slots (array capacities, which [reset] keeps);
    [reset] takes a workspace back to its fresh state in place. *)

val take : 'a slot -> (unit -> 'a) -> 'a
(** The calling domain's spare workspace, or a fresh one from the
    builder. *)

val give_back : 'a slot -> 'a -> unit
(** Reset the workspace and keep it as the domain's spare, unless its
    footprint exceeds {!cap}: then it is dropped. *)

val retained : 'a slot -> int
(** The footprint of the calling domain's spare workspace, [0] if it
    keeps none. *)

val grow_to : 'a array -> int -> 'a -> 'a array
(** [grow_to a n fill] is [a] if it holds [n] entries, else a copy at
    least twice as long, its new entries [fill].  Callers store the
    result only when [n] exceeds [a]'s length, so an array that does not
    grow costs no write. *)
