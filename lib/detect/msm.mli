(** Helgrind+ memory state machine.

    Each shared cell moves through ownership states; races are only
    reported once a cell is shared and modified.  The [sensitivity] knob is
    the paper's short-running vs. long-running distinction: the
    long-running variant arms on the first unsynchronized access and
    reports from the second on ("might miss a race on the first iteration,
    but not on the second"), trading sensitivity for fewer false positives
    in long integration runs. *)

type state =
  | Virgin (* never accessed *)
  | Exclusive of int (* owned by one thread so far *)
  | Shared_read (* several threads, reads only since sharing *)
  | Shared_modified (* several threads, at least one write *)

type sensitivity = Short_running | Long_running

val transition : state -> tid:int -> write:bool -> ordered:bool -> state
(** [ordered] — all prior conflicting accesses happen-before the current
    one; an ordered handover keeps the cell exclusive to the new thread. *)

val sensitivity_name : sensitivity -> string

val parse_sensitivity : string -> (sensitivity, string) result
(** Inverse of {!sensitivity_name}. *)
