(** Classification of detector output against a test case's ground truth.

    Mirrors the paper's unit-suite accounting: a case counts as a
    false-alarm case if the detector warned about any variable with no real
    race; otherwise as a missed-race case if a real race went unreported;
    otherwise it is correctly analyzed.  Failed = false alarm or missed. *)

type expectation =
  | Race_free
  | Racy of string list (* global bases with a real race *)

type verdict = {
  false_bases : string list; (* warned about, but not really racy *)
  missed_bases : string list; (* really racy, but not warned about *)
}

type outcome = Correct | False_alarm | Missed_race

val classify : expectation -> reported:string list -> verdict
val outcome_of : verdict -> outcome

type tally = {
  mutable false_alarms : int;
  mutable missed : int;
  mutable correct : int;
}

val tally_create : unit -> tally
val tally_add : tally -> outcome -> unit
val failed : tally -> int
val total : tally -> int

val pp_verdict : Format.formatter -> verdict -> unit
