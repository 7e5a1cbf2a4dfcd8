(** Printers for TIR values, used by the CLI's [show] command, error
    messages, and race reports. *)

open Types

val func : Format.formatter -> func -> unit
val loc : Format.formatter -> loc -> unit

val loc_to_string : loc -> string
val program_to_string : program -> string
