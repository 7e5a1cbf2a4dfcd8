(** The PR-3-era interpreting machine, frozen verbatim — the differential
    oracle for {!Machine}.

    Shares {!Machine.config}, {!Machine.result} and {!Machine.Fault_exn},
    so observers, chaos injectors and drivers run unchanged against either
    machine.  For any (program, config) the two machines must produce the
    same result and the same event sequence; [test_machine_diff]
    enforces this.  Never optimize this module. *)

open Arde_tir.Types

type compiled
(** The frozen pre-resolution form (blocks as arrays, label indices in a
    hashtable, string-keyed register files). *)

val compile : program -> compiled
(** @raise Invalid_argument if the program does not validate. *)

val run : Machine.config -> compiled -> Machine.result

val run_program : Machine.config -> program -> Machine.result
(** [compile] + [run]. *)
