(** Static identification of lock words — the paper's future work
    ("improving the accuracy of the universal race detector by identifying
    the lock operations, enabling lockset analysis").

    A global base is classified as an inferred lock when the program
    contains both halves of the canonical mutual-exclusion shape:

    - an acquire: a compare-and-swap of the base from 0 to 1 (the
      claim step of a test-and-test-and-set), and
    - a release: a plain store or an atomic exchange writing 0 to it.

    Claim-only flags (a CAS with no release anywhere) do not qualify, so
    e.g. one-shot work-stealing claims are not mistaken for mutexes.

    At runtime the detection engine turns successful 0→1 transitions by a
    thread into lockset acquisitions and its 1→0 writes into releases,
    giving the library-free detector an Eraser-style candidate lockset. *)

open Arde_tir.Types

type t

val analyze : program -> t

val inferred_locks : t -> string list
(** Sorted base names classified as locks. *)
